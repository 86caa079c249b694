package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/bugdoc"
	"repro/internal/metrics"
	"repro/internal/synth"
)

// durableWorkload is durable-resume: per input, a write-ahead-logged
// session that ingests an execution log, runs FindOne with Stacked
// Shortcut on two workers, and is resumed twice — by WAL replay, then from
// a checkpoint — after which the same search must cost nothing. It is the
// write-heavy use of provenance and provlog. The log is OS-buffered (no
// WithFsync).
type durableWorkload struct {
	pool, history int
	stateRoot     string
	// resumeFrom, when set, replaces the directory the WAL-replay resume
	// reads; tests point it at an empty directory to break that step.
	resumeFrom string
	inputs     []durableInput
}

type durableInput struct {
	p       *synth.Pipeline
	history []bugdoc.Record
	seed    int64
}

func (w *durableWorkload) size() int { return w.pool }

func (w *durableWorkload) generate(seed int64) (uint64, error) {
	r := rand.New(rand.NewSource(seed))
	fp := newFingerprint()
	w.inputs = make([]durableInput, w.pool)
	for i := range w.inputs {
		// Eight or more parameters of at least five values give every
		// space room for the history's distinct instances.
		k := 8 + i%8
		p, err := generatePipeline(r, synth.Config{MinParams: k, MaxParams: k})
		if err != nil {
			return 0, err
		}
		failing, ok := p.SampleFailing(r)
		if !ok {
			return 0, fmt.Errorf("input %d: no failing instance to plant", i)
		}
		params := p.Space.Len()
		flat := make([]uint32, 0, w.history*params)
		hashes := make([]uint64, 0, w.history)
		outcomes := make([]bugdoc.Outcome, 0, w.history)
		seen := make(map[uint64]bool, w.history)
		add := func(in bugdoc.Instance) {
			if seen[in.Hash()] {
				return
			}
			seen[in.Hash()] = true
			for j := 0; j < params; j++ {
				flat = append(flat, in.Code(j))
			}
			hashes = append(hashes, in.Hash())
			outcomes = append(outcomes, outcomeOf(p.Truth, in))
		}
		add(failing)
		for len(hashes) < w.history {
			add(p.Space.RandomInstance(r))
		}
		// The runs are code-only instances over one shared code matrix, as
		// a checkpoint load builds them, so a pool of hundreds of logs
		// costs a few hundred bytes per run.
		hist := make([]bugdoc.Record, 0, w.history)
		if err := p.Space.AdoptInstances(flat, hashes, func(r int, in bugdoc.Instance) {
			hist = append(hist, bugdoc.Record{Instance: in, Outcome: outcomes[r], Source: "log"})
		}); err != nil {
			return 0, err
		}
		succeeded := false
		for _, rec := range hist {
			succeeded = succeeded || rec.Outcome == bugdoc.Succeed
			fp.u64(rec.Instance.Hash())
			fp.u64(uint64(rec.Outcome))
		}
		if !succeeded {
			return 0, fmt.Errorf("input %d: the history has no succeeding run", i)
		}
		w.inputs[i] = durableInput{p: p, history: hist, seed: r.Int63()}
		fp.pipeline(p)
		fp.u64(uint64(w.inputs[i].seed))
	}
	return fp.sum(), nil
}

func (w *durableWorkload) session(ctx context.Context, i int, tr *tracer, reg *bugdoc.Registry) (res sessionResult, err error) {
	in := w.inputs[i]
	o := &truthOracle{truth: in.p.Truth, tr: tr}
	opts := []bugdoc.Option{bugdoc.WithWorkers(2), bugdoc.WithSeed(in.seed)}
	if reg != nil {
		opts = append(opts, bugdoc.WithTelemetry(reg))
	}

	// Each step's time adds to the session's; the checks between steps
	// run off the clock.
	step := func(name string, f func() error) error {
		id := tr.enter(name)
		start := time.Now()
		err := f()
		res.elapsed += time.Since(start)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	tr.beginSession()
	defer tr.endSession()
	start := time.Now()
	dir, err := os.MkdirTemp(w.stateRoot, "session-")
	res.elapsed += time.Since(start)
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	var s *bugdoc.Session
	defer func() {
		if s != nil {
			s.Close()
		}
	}()
	create := func() (err error) {
		s, err = bugdoc.NewSession(in.p.Space, o,
			append([]bugdoc.Option{bugdoc.WithDurability(dir), bugdoc.WithHistory(in.history)}, opts...)...)
		return err
	}
	resume := func(from string) func() error {
		return func() (err error) {
			s, err = bugdoc.ResumeSession(from, o, opts...)
			return err
		}
	}
	closeSession := func() error {
		err := s.Close()
		s = nil
		return err
	}
	search := func(causes *bugdoc.DNF) func() error {
		return func() (err error) {
			*causes, err = s.FindOne(ctx, bugdoc.StackedShortcut)
			return err
		}
	}

	if err := step("bugdoc.ingest", create); err != nil {
		return res, err
	}
	if reg != nil {
		res.ingestBytes = reg.Snapshot().Counters["provlog_bytes_appended"]
		res.ingestRecords = int64(len(in.history))
	}
	if err := step("core.search", search(&res.causes)); err != nil {
		return res, err
	}
	res.execs = s.Spent()
	// The resumed search must reproduce a second search of the live
	// session, off the clock here. That is usually the first answer again,
	// but not always: the first search's executions can offer Stacked
	// Shortcut other succeeding runs to stack against (about one input in
	// 2500).
	want, err := s.FindOne(ctx, bugdoc.StackedShortcut)
	if err != nil {
		return res, fmt.Errorf("reference search: %w", err)
	}
	liveSpent := s.Spent()
	logged, digest := s.Store().Len(), recordsDigest(s.Store())
	replayed := func(what string) error {
		if n, d := s.Store().Len(), recordsDigest(s.Store()); n != logged || d != digest {
			return fmt.Errorf("%s restored %d records (digest %016x); %d were logged (digest %016x)", what, n, d, logged, digest)
		}
		return nil
	}
	if err := step("provlog.close", closeSession); err != nil {
		return res, err
	}

	from := dir
	if w.resumeFrom != "" {
		from = w.resumeFrom
	}
	if err := step("provlog.replay", resume(from)); err != nil {
		return res, err
	}
	if err := replayed("WAL replay"); err != nil {
		return res, err
	}
	if err := step("provlog.checkpoint", func() error { return s.Checkpoint() }); err != nil {
		return res, err
	}
	if err := step("provlog.close", closeSession); err != nil {
		return res, err
	}
	if err := step("provlog.ckpt_load", resume(dir)); err != nil {
		return res, err
	}
	if err := replayed("checkpoint load"); err != nil {
		return res, err
	}
	var again bugdoc.DNF
	if err := step("core.search", search(&again)); err != nil {
		return res, err
	}
	if s.Spent() != 0 || again.String() != want.String() {
		return res, fmt.Errorf("resumed FindOne spent %d and found %v; want 0 and %v", s.Spent(), again, want)
	}
	if err := step("provlog.close", closeSession); err != nil {
		return res, err
	}
	if calls := o.calls.Load(); calls != int64(liveSpent) {
		return res, fmt.Errorf("oracle ran %d times for %d new executions", calls, liveSpent)
	}
	return res, nil
}

// replay has nothing to do: every layer a durable session uses sits under
// a span of its own, and it builds no decision tree.
func (w *durableWorkload) replay(context.Context, *tracer, int, sessionResult) error { return nil }

func (w *durableWorkload) judge(i int, causes bugdoc.DNF) (metrics.PipelineEval, error) {
	p := w.inputs[i].p
	return metrics.Judge(p.Space, causes, p.Truth, p.Minimal)
}

// score uses the FindOne measures: the session's goal is one cause.
func (w *durableWorkload) score(ag metrics.Aggregate) (precision, recall float64) {
	return ag.FindOnePrecision(), ag.FindOneRecall()
}
