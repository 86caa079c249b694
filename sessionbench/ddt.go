package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/bugdoc"
	"repro/internal/dataxray"
	"repro/internal/dtree"
	"repro/internal/exec"
	"repro/internal/exptables"
	"repro/internal/metrics"
	"repro/internal/provenance"
	"repro/internal/smac"
	"repro/internal/synth"
)

// ddtWorkload is session-ddt: per input, an in-memory session over one
// synthetic pipeline that starts from one planted failing run, seeds, and
// runs FindAll with Debugging Decision Trees, one worker and a zero-latency
// oracle. It is the paper's headline use and exercises core, dtree,
// predicate and provenance, but neither provlog nor forest.
type ddtWorkload struct {
	pool   int
	inputs []ddtInput
}

type ddtInput struct {
	p       *synth.Pipeline
	failing bugdoc.Instance
	seed    int64
}

func (w *ddtWorkload) size() int { return w.pool }

func (w *ddtWorkload) generate(seed int64) (uint64, error) {
	r := rand.New(rand.NewSource(seed))
	fp := newFingerprint()
	w.inputs = make([]ddtInput, w.pool)
	for i := range w.inputs {
		// Parameter counts cycle through the paper's 3-15, so every seed's
		// pool has the same mix of sizes; everything else is drawn.
		k := 3 + i%13
		p, err := generatePipeline(r, synth.Config{MinParams: k, MaxParams: k})
		if err != nil {
			return 0, err
		}
		failing, ok := p.SampleFailing(r)
		if !ok {
			return 0, fmt.Errorf("input %d: no failing instance to plant", i)
		}
		w.inputs[i] = ddtInput{p: p, failing: failing, seed: r.Int63()}
		fp.pipeline(p)
		fp.str(failing.Key())
		fp.u64(uint64(w.inputs[i].seed))
	}
	return fp.sum(), nil
}

func (w *ddtWorkload) session(ctx context.Context, i int, tr *tracer, reg *bugdoc.Registry) (sessionResult, error) {
	in := w.inputs[i]
	o := &truthOracle{truth: in.p.Truth, tr: tr}
	opts := []bugdoc.Option{
		bugdoc.WithHistory([]bugdoc.Record{{Instance: in.failing, Outcome: bugdoc.Fail, Source: "given"}}),
		bugdoc.WithSeed(in.seed),
		bugdoc.WithWorkers(1),
	}
	if reg != nil {
		opts = append(opts, bugdoc.WithTelemetry(reg))
	}

	tr.beginSession()
	start := time.Now()
	id := tr.enter("bugdoc.ingest")
	s, err := bugdoc.NewSession(in.p.Space, o, opts...)
	tr.end(id)
	var causes bugdoc.DNF
	if err == nil {
		id = tr.enter("bugdoc.seed")
		err = s.Seed(ctx)
		tr.end(id)
	}
	if err == nil {
		id = tr.enter("core.search")
		causes, err = s.FindAll(ctx, bugdoc.DebuggingDecisionTrees)
		tr.end(id)
	}
	elapsed := time.Since(start)
	tr.endSession()
	if err != nil {
		return sessionResult{}, err
	}

	if calls := o.calls.Load(); calls != int64(s.Spent()) {
		return sessionResult{}, fmt.Errorf("oracle ran %d times for %d new executions", calls, s.Spent())
	}
	records := s.Store().Snapshot().Records()
	for _, r := range records {
		if want := outcomeOf(in.p.Truth, r.Instance); r.Outcome != want {
			return sessionResult{}, fmt.Errorf("provenance records %v as %v; the ground truth says %v", r.Instance, r.Outcome, want)
		}
	}
	res := sessionResult{elapsed: elapsed, causes: causes, execs: s.Spent()}
	if tr != nil {
		res.records = records
	}
	return res, nil
}

// replay times the layers a session's spans cannot isolate. dtree.Build
// is replayed over the session's final provenance. The Figure 3 comparison
// methods run on the same pipeline: SMAC under the session's execution
// budget, then Data X-Ray and Explanation Tables over the instances SMAC
// generated.
func (w *ddtWorkload) replay(ctx context.Context, tr *tracer, i int, sr sessionResult) error {
	in := w.inputs[i]
	space := in.p.Space
	examples := make([]dtree.Example, len(sr.records))
	for i, r := range sr.records {
		examples[i] = dtree.Example{Instance: r.Instance, Outcome: r.Outcome}
	}
	id := tr.enter("dtree.build")
	dtree.Build(space, examples)
	tr.end(id)

	st := provenance.NewStore(space)
	if err := st.Add(in.failing, bugdoc.Fail, "given"); err != nil {
		return err
	}
	ex := exec.New(in.p.Oracle(), st)
	id = tr.enter("smac.run")
	_, err := smac.Run(ctx, ex, sr.execs, smac.Options{Rand: rand.New(rand.NewSource(in.seed))})
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.enter("dataxray.diagnose")
	_, err = dataxray.Diagnose(space, st, dataxray.Options{})
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.enter("exptables.explain")
	exptables.Explain(space, st, exptables.Options{Rand: rand.New(rand.NewSource(in.seed))})
	tr.end(id)
	return nil
}

func (w *ddtWorkload) judge(i int, causes bugdoc.DNF) (metrics.PipelineEval, error) {
	p := w.inputs[i].p
	return metrics.Judge(p.Space, causes, p.Truth, p.Minimal)
}

func (w *ddtWorkload) score(ag metrics.Aggregate) (precision, recall float64) {
	return ag.FindAllPrecision(), ag.FindAllRecall()
}
