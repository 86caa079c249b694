package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/bugdoc"
	"repro/internal/metrics"
)

// sessionResult is what one debugging session produced. A session's
// answer and cost depend only on its input, so a repeat must reproduce
// them.
type sessionResult struct {
	elapsed time.Duration // the session's own time; checks run off the clock
	causes  bugdoc.DNF
	execs   int // new pipeline executions the session paid for
	// ingestBytes and ingestRecords measure a traced durable session's
	// history ingest.
	ingestBytes, ingestRecords int64
	// records is a traced session's final provenance, kept for replays.
	records []bugdoc.Record
}

// replayItem is a traced session whose layers are replayed after the
// pairs have run.
type replayItem struct {
	input, traceID int
	sr             sessionResult
}

// maxReplays caps the traced sessions kept for replay; the replay phase
// gets through far fewer.
const maxReplays = 256

// workload is one closed-loop benchmark workload over a pool of inputs.
type workload interface {
	// generate draws size() inputs from seed, replacing any earlier ones,
	// and returns their fingerprint.
	generate(seed int64) (uint64, error)
	size() int
	// session runs input i as one debugging session and checks what its
	// own steps guarantee. tr and reg are nil outside the traced run.
	session(ctx context.Context, i int, tr *tracer, reg *bugdoc.Registry) (sessionResult, error)
	// replay times, under tr, the layers a traced session of input i
	// could not isolate.
	replay(ctx context.Context, tr *tracer, i int, sr sessionResult) error
	// judge scores causes against input i's ground truth.
	judge(i int, causes bugdoc.DNF) (metrics.PipelineEval, error)
	// score turns the judgements of one pass over the pool into the
	// precision and recall the workload reports.
	score(ag metrics.Aggregate) (precision, recall float64)
}

// scale sizes the workloads' input pools.
type scale struct {
	ddtPool, durablePool, history int
}

// fullScale is what the benchmark runs. The pools are large so that what
// they measure moves little from seed to seed: session-ddt's cost is
// heavy-tailed, its mean set by the few large pipelines a seed draws, and
// a FindOne hit is a coin flip per pipeline, so durable-resume's precision
// and recall need hundreds of pipelines.
var fullScale = scale{ddtPool: 2600, durablePool: 256, history: 5000}

var workloadNames = []string{"session-ddt", "durable-resume"}

func newWorkload(name string, sc scale, stateRoot string) (workload, error) {
	switch name {
	case "session-ddt":
		return &ddtWorkload{pool: sc.ddtPool}, nil
	case "durable-resume":
		return &durableWorkload{pool: sc.durablePool, history: sc.history, stateRoot: stateRoot}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r result) failedFrac() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

type metricDef struct{ name, unit string }

// endToEnd lists the untraced run's metrics; BENCHMARK.json names the same.
var endToEnd = []metricDef{
	{"sessions_per_s", "1/s"},
	{"session_p50_ms", "ms"},
	{"session_p90_ms", "ms"},
	{"oracle_execs_per_session", "count"},
	{"cause_precision", "ratio"},
	{"cause_recall", "ratio"},
	{"alloc_kb_per_session", "KiB"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer lists the traced run's metrics, per traced session; a layer a
// workload does not use reads 0.
var perLayer = []metricDef{
	{"core.search_ms", "ms"},
	{"core.search_self_ms", "ms"},
	{"core.decisions", "count"},
	{"core.tree_regrows", "count"},
	{"dtree.build_ms", "ms"},
	{"smac.run_ms", "ms"},
	{"dataxray.diagnose_ms", "ms"},
	{"exptables.explain_ms", "ms"},
	{"bugdoc.ingest_ms", "ms"},
	{"provlog.bytes_appended", "bytes"},
	{"provlog.flushes", "count"},
	{"provlog.bytes_per_record", "bytes"},
	{"provlog.checkpoint_ms", "ms"},
	{"provlog.checkpoint_bytes", "bytes"},
	{"provlog.replay_ms", "ms"},
	{"provlog.ckpt_load_ms", "ms"},
	{"provenance.index_build_ms", "ms"},
	{"provenance.epoch_refreshes", "count"},
	{"provenance.records", "count"},
	{"exec.memo_hits", "count"},
	{"exec.memo_misses", "count"},
	{"exec.oracle_trials", "count"},
	{"oracle.calls", "count"},
	{"oracle.busy_ms", "ms"},
	{"resume_p50_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// withUnits attaches each listed metric's unit; every listed name must
// have a value.
func withUnits(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

type config struct {
	seed     int64
	seconds  time.Duration
	traced   bool
	traceOut string    // where the traced run writes its spans
	log      io.Writer // the human-readable report
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 3

// measure sets the workload up and runs it for cfg.seconds, untraced for
// the end-to-end metrics or traced for the per-layer split.
func measure(ctx context.Context, w workload, cfg config) (result, error) {
	setup, fp, err := setUp(ctx, w, cfg.seed)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(cfg.log, "inputs: %d, fingerprint %016x; set-up %.3fs (median of %d)\n", w.size(), fp, setup, setupReps)
	var res result
	if cfg.traced {
		res, err = measureTraced(ctx, w, cfg)
	} else {
		res, err = measureSessions(ctx, w, cfg, setup)
	}
	if err != nil {
		return res, err
	}
	fmt.Fprintf(cfg.log, "sessions: %d attempted, %d failed (failed_frac %g)\n", res.Attempted, res.Failed, res.failedFrac())
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(cfg.log, "  %-28s %14.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	return res, nil
}

// setUp generates the inputs and warms up on the first one, setupReps
// times; every repeat must generate identical inputs. Generation and the
// lazy initialisation the warm-up session pays count here, never in the
// session timings.
func setUp(ctx context.Context, w workload, seed int64) (median float64, fp uint64, err error) {
	times := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		f, err := w.generate(seed)
		if err != nil {
			return 0, 0, fmt.Errorf("set-up: %w", err)
		}
		if _, err := w.session(ctx, 0, nil, nil); err != nil {
			return 0, 0, fmt.Errorf("warm-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if rep > 0 && f != fp {
			return 0, 0, fmt.Errorf("set-up: seed %d generated different inputs on a repeat (%016x, then %016x)", seed, fp, f)
		}
		fp = f
	}
	sort.Float64s(times)
	return quantile(times, 0.5), fp, nil
}

// firstPass judges each input's first session against the ground truth
// and holds every later session of that input to the same answer and cost.
type firstPass struct {
	w      workload
	seen   []*passEntry
	ag     metrics.Aggregate
	execs  int
	judged int
}

type passEntry struct {
	causes string
	execs  int
}

func newFirstPass(w workload) *firstPass {
	return &firstPass{w: w, seen: make([]*passEntry, w.size())}
}

func (p *firstPass) check(i int, sr sessionResult) error {
	got := passEntry{causes: sr.causes.String(), execs: sr.execs}
	if prev := p.seen[i]; prev != nil {
		if got != *prev {
			return fmt.Errorf("input %d: a repeat spent %d and found %s; the first session spent %d and found %s",
				i, got.execs, got.causes, prev.execs, prev.causes)
		}
		return nil
	}
	ev, err := p.w.judge(i, sr.causes)
	if err != nil {
		return fmt.Errorf("input %d: judge: %w", i, err)
	}
	p.seen[i] = &got
	p.ag.Add(ev)
	p.execs += sr.execs
	p.judged++
	return nil
}

// failure counts one failed session, reporting the first few.
func failure(res *result, log io.Writer, i int, err error) {
	res.Failed++
	if res.Failed <= 5 {
		fmt.Fprintf(log, "session %d failed: %v\n", i, err)
	}
}

// measureSessions is the untraced closed loop: one client cycles through
// the pool, starting each session when the previous one has finished and
// been checked, in whole passes over the pool until the time is up. Whole
// passes keep every run's mix of inputs the pool's own, so a timing moves
// with the program and the machine, not with where the clock stopped. The
// answer-derived metrics cover the first pass, so they are the same on
// every run of a seed.
func measureSessions(ctx context.Context, w workload, cfg config, setup float64) (result, error) {
	n := w.size()
	pass := newFirstPass(w)
	var res result
	var lat []float64
	var allocs uint64
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; i == 0 || i%n != 0 || time.Now().Before(deadline); i++ {
		before := heapAllocBytes()
		sr, err := w.session(ctx, i%n, nil, nil)
		allocs += heapAllocBytes() - before
		res.Attempted++
		if err == nil {
			err = pass.check(i%n, sr)
		}
		if err != nil {
			failure(&res, cfg.log, i, err)
			continue
		}
		lat = append(lat, sr.elapsed.Seconds()*1e3)
	}
	res.Correct = res.Failed == 0
	if len(lat) == 0 || pass.judged == 0 {
		return res, fmt.Errorf("all %d sessions failed", res.Attempted)
	}
	sort.Float64s(lat)
	total := 0.0
	for _, x := range lat {
		total += x
	}
	fmt.Fprintf(cfg.log, "timed sessions: %d, %d of them beyond p90\n", len(lat), len(lat)-int(0.9*float64(len(lat))))
	precision, recall := w.score(pass.ag)
	var err error
	res.Metrics, err = withUnits(endToEnd, map[string]float64{
		"sessions_per_s":           float64(len(lat)) / (total / 1e3),
		"session_p50_ms":           quantile(lat, 0.5),
		"session_p90_ms":           quantile(lat, 0.9),
		"oracle_execs_per_session": float64(pass.execs) / float64(pass.judged),
		"cause_precision":          precision,
		"cause_recall":             recall,
		"alloc_kb_per_session":     float64(allocs) / 1024 / float64(res.Attempted),
		"peak_rss_mb":              peakRSSMiB(),
		"setup_s":                  setup,
	})
	return res, err
}

// measureTraced runs every input twice, untraced and traced, alternating
// which goes first, for half the time; the traced sessions give the
// per-layer split and the pair the tracing overhead on identical work.
// The other half replays layers on the traced sessions.
func measureTraced(ctx context.Context, w workload, cfg config) (result, error) {
	tr := newTracer()
	n := w.size()
	pass := newFirstPass(w)
	var res result
	var plain, traced time.Duration
	counters := make(map[string]float64)
	var ingestBytes, ingestRecords int64
	var toReplay []replayItem
	sessions := 0
	start := time.Now()
	deadline := start.Add(cfg.seconds / 2)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		k := i % n
		reg := bugdoc.NewRegistry()
		var pr, tres sessionResult
		var perr, terr error
		if i%2 == 0 {
			pr, perr = w.session(ctx, k, nil, nil)
			tres, terr = w.session(ctx, k, tr, reg)
		} else {
			tres, terr = w.session(ctx, k, tr, reg)
			pr, perr = w.session(ctx, k, nil, nil)
		}
		res.Attempted += 2
		if perr == nil {
			perr = pass.check(k, pr)
		}
		if terr == nil {
			terr = pass.check(k, tres)
		}
		if perr != nil || terr != nil {
			for _, err := range []error{perr, terr} {
				if err != nil {
					failure(&res, cfg.log, i, err)
				}
			}
			continue
		}
		sessions++
		plain += pr.elapsed
		traced += tres.elapsed
		ingestBytes += tres.ingestBytes
		ingestRecords += tres.ingestRecords
		snap := reg.Snapshot()
		for name, v := range snap.Counters {
			counters[name] += float64(v)
		}
		counters["provenance_records"] += float64(snap.Gauges["provenance_records"])
		counters["provenance_index_build_ns"] += float64(snap.Histograms["provenance_index_build_ns"].Sum)
		if len(toReplay) < maxReplays {
			toReplay = append(toReplay, replayItem{input: k, traceID: tr.current(), sr: tres})
		}
	}
	res.Correct = res.Failed == 0
	if sessions == 0 {
		return res, fmt.Errorf("all %d sessions failed", res.Attempted)
	}

	// Replays run after the pairs, so their work disturbs neither side of
	// the overhead comparison, in the second half of the time.
	replays := 0
	deadline = start.Add(cfg.seconds)
	for _, it := range toReplay {
		if replays > 0 && !time.Now().Before(deadline) {
			break
		}
		tr.attach(it.traceID)
		if err := w.replay(ctx, tr, it.input, it.sr); err != nil {
			return res, fmt.Errorf("replay of input %d: %w", it.input, err)
		}
		replays++
	}

	spans := tr.totals()
	layer := func(name string) *layerTotal {
		if lt := spans[name]; lt != nil {
			return lt
		}
		return &layerTotal{}
	}
	perSession := func(v float64) float64 { return v / float64(sessions) }
	ms := func(name string) float64 { return perSession(float64(layer(name).total) / 1e6) }
	// Replayed layers are per replay: a workload without them reads 0.
	replayMs := func(name string) float64 {
		if replays == 0 {
			return 0
		}
		return float64(layer(name).total) / 1e6 / float64(replays)
	}
	bytesPerRecord := 0.0
	if ingestRecords > 0 {
		bytesPerRecord = float64(ingestBytes) / float64(ingestRecords)
	}
	resumes := layer("provlog.replay").durs
	sort.Float64s(resumes)
	values := map[string]float64{
		"core.search_ms":             ms("core.search"),
		"core.search_self_ms":        perSession(float64(layer("core.search").self) / 1e6),
		"core.decisions":             perSession(counters["driver_decisions"]),
		"core.tree_regrows":          perSession(counters["driver_tree_regrows"]),
		"dtree.build_ms":             replayMs("dtree.build"),
		"smac.run_ms":                replayMs("smac.run"),
		"dataxray.diagnose_ms":       replayMs("dataxray.diagnose"),
		"exptables.explain_ms":       replayMs("exptables.explain"),
		"bugdoc.ingest_ms":           ms("bugdoc.ingest"),
		"provlog.bytes_appended":     perSession(counters["provlog_bytes_appended"]),
		"provlog.flushes":            perSession(counters["provlog_flushes"]),
		"provlog.bytes_per_record":   bytesPerRecord,
		"provlog.checkpoint_ms":      ms("provlog.checkpoint"),
		"provlog.checkpoint_bytes":   perSession(counters["provlog_checkpoint_bytes"]),
		"provlog.replay_ms":          ms("provlog.replay"),
		"provlog.ckpt_load_ms":       ms("provlog.ckpt_load"),
		"provenance.index_build_ms":  perSession(counters["provenance_index_build_ns"] / 1e6),
		"provenance.epoch_refreshes": perSession(counters["provenance_epoch_refreshes"]),
		"provenance.records":         perSession(counters["provenance_records"]),
		"exec.memo_hits":             perSession(counters["exec_memo_hits"]),
		"exec.memo_misses":           perSession(counters["exec_memo_misses"]),
		"exec.oracle_trials":         perSession(counters["exec_oracle_trials"]),
		"oracle.calls":               perSession(float64(layer("oracle").n)),
		"oracle.busy_ms":             ms("oracle"),
		"resume_p50_ms":              quantile(resumes, 0.5),
		"trace.overhead_pct":         100 * (traced.Seconds()/plain.Seconds() - 1),
	}

	if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
		return res, err
	}
	if err := tr.write(cfg.traceOut); err != nil {
		return res, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(cfg.log, "traced sessions: %d, replayed: %d; spans written to %s\n", sessions, replays, cfg.traceOut)
	fmt.Fprintf(cfg.log, "tracing overhead: %.1f%% (%.3f ms traced vs %.3f ms untraced per session)\n",
		values["trace.overhead_pct"], perSession(traced.Seconds()*1e3), perSession(plain.Seconds()*1e3))
	var err error
	res.Metrics, err = withUnits(perLayer, values)
	return res, err
}

// quantile is the q-quantile of sorted xs, interpolating linearly between
// order statistics.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// allocSample reads the runtime's cumulative heap allocation count; the
// benchmark reads it from its one client goroutine only.
var allocSample = []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocBytes() uint64 {
	rtmetrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// peakRSSMiB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
