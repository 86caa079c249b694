// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 5), plus ablations over the design choices called out in
// DESIGN.md and micro-benchmarks of the hot substrates. Sizes are reduced
// against the paper's full ranges so the suite finishes quickly; the
// cmd/bugdoc-bench binary runs the same experiments at any size.
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dbsherlock"
	"repro/internal/dtree"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/predicate"
	"repro/internal/provenance"
	"repro/internal/provlog"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

var benchSynth = synth.Config{MinParams: 3, MaxParams: 5, MinValues: 4, MaxValues: 6}

// BenchmarkTable2Shortcut regenerates the Table 1 → Table 2 walkthrough of
// Example 1 (the Shortcut substitutions on the Figure 1 ML pipeline).
func BenchmarkTable2Shortcut(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Tables12(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if res.RootCause.String() != `LibraryVersion = "2.0"` {
			b.Fatalf("root cause = %v", res.RootCause)
		}
	}
}

func benchFig2(b *testing.B, sc synth.Scenario) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig23(ctx, experiments.Fig23Config{
			Scenario: sc, Pipelines: 2, Seed: int64(i + 1), Synth: benchSynth,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Single regenerates Figure 2a-c (FindOne, single triple).
func BenchmarkFig2Single(b *testing.B) { benchFig2(b, synth.SingleTriple) }

// BenchmarkFig2Conjunction regenerates Figure 2d-f (FindOne, conjunction).
func BenchmarkFig2Conjunction(b *testing.B) { benchFig2(b, synth.SingleConjunction) }

// BenchmarkFig2Disjunction regenerates Figure 2g-i (FindOne, disjunction).
func BenchmarkFig2Disjunction(b *testing.B) { benchFig2(b, synth.Disjunction) }

// BenchmarkFig3FindAll regenerates Figure 3a-c (FindAll, disjunction).
func BenchmarkFig3FindAll(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig23(ctx, experiments.Fig23Config{
			Scenario: synth.Disjunction, Pipelines: 2, Seed: int64(i + 1),
			FindAll: true, Synth: benchSynth,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Conciseness regenerates Figure 4a-b.
func BenchmarkFig4Conciseness(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig4(ctx, experiments.Fig4Config{
			Pipelines: 2, Seed: int64(i + 1), Synth: benchSynth,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Instances regenerates Figure 5 (instances vs |P|).
func BenchmarkFig5Instances(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(ctx, experiments.Fig5Config{
			ParamCounts: []int{3, 6, 9}, PipelinesPer: 2, Seed: int64(i + 1),
			MinValues: 4, MaxValues: 6,
		})
		if err != nil {
			b.Fatal(err)
		}
		curve := res.Curves[experiments.MethodShortcut]
		if curve[len(curve)-1].Instances > 9 {
			b.Fatalf("Shortcut exceeded |P| instances: %+v", curve)
		}
	}
}

// BenchmarkFig6Parallel regenerates Figure 6 (parallel scale-up).
func BenchmarkFig6Parallel(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(ctx, experiments.Fig6Config{
			Workers: []int{1, 4}, Latency: 2 * time.Millisecond,
			Seed: int64(i + 1), Synth: benchSynth,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Points[1].Speedup <= 1 {
			b.Fatalf("no speedup: %+v", res.Points)
		}
	}
}

// BenchmarkFig7RealWorld regenerates Figure 7 (real-world pipelines).
func BenchmarkFig7RealWorld(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig7(ctx, experiments.Fig7Config{
			Seed: int64(i + 1), DBSherlockClasses: 1,
			Corpus: dbsherlock.Config{NormalWindows: 80, AnomalousPerClass: 20},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDBSherlockAccuracy regenerates the Section 5.3 accuracy claim
// (the paper reports 98%).
func BenchmarkDBSherlockAccuracy(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		res, err := experiments.DBSherlockAccuracy(ctx, experiments.DBSherlockConfig{
			Seed: int64(i + 1), Classes: 2,
			Corpus: dbsherlock.Config{NormalWindows: 80, AnomalousPerClass: 20},
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Mean < 0.80 {
			b.Fatalf("accuracy %.2f collapsed", res.Mean)
		}
	}
}

// --- Ablations over DESIGN.md design choices -------------------------------

// newBenchProblem seeds one synthetic disjunction pipeline.
func newBenchProblem(b *testing.B, seed int64) (*synth.Pipeline, *exec.Executor) {
	b.Helper()
	r := rand.New(rand.NewSource(seed))
	sp, err := synth.Generate(r, benchSynth, synth.Disjunction)
	if err != nil {
		b.Fatal(err)
	}
	ex := exec.New(sp.Oracle(), provenance.NewStore(sp.Space))
	if err := core.SeedHistory(context.Background(), ex, r, 500); err != nil {
		b.Fatal(err)
	}
	return sp, ex
}

// BenchmarkAblationSuspectTests contrasts DDT verification depth: few
// samples confirm suspects cheaply but risk false assertions, many samples
// cost more executions.
func BenchmarkAblationSuspectTests(b *testing.B) {
	for _, tests := range []int{4, 16} {
		b.Run(map[int]string{4: "tests=4", 16: "tests=16"}[tests], func(b *testing.B) {
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				_, ex := newBenchProblemPair(b, int64(i+1))
				_, err := core.DebugDecisionTrees(ctx, ex, core.DDTOptions{
					Rand: rand.New(rand.NewSource(int64(i))), FindAll: true,
					MaxSuspectTests: tests,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func newBenchProblemPair(b *testing.B, seed int64) (*synth.Pipeline, *exec.Executor) {
	return newBenchProblem(b, seed)
}

// BenchmarkAblationSimplify measures the Quine-McCluskey simplification
// step in isolation against leaving DDT output raw.
func BenchmarkAblationSimplify(b *testing.B) {
	ctx := context.Background()
	sp, ex := newBenchProblem(b, 7)
	raw, err := core.DebugDecisionTrees(ctx, ex, core.DDTOptions{
		Rand: rand.New(rand.NewSource(7)), FindAll: true, Simplify: false,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := predicate.SimplifyDNF(sp.Space, raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStackedGoods contrasts Stacked Shortcut with k=1 (plain
// Shortcut) and k=4 disjoint goods.
func BenchmarkAblationStackedGoods(b *testing.B) {
	for _, k := range []int{1, 4} {
		b.Run(map[int]string{1: "k=1", 4: "k=4"}[k], func(b *testing.B) {
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				_, ex := newBenchProblem(b, int64(i+1))
				if _, err := core.StackedShortcut(ctx, ex, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Micro-benchmarks of the substrates ------------------------------------

// BenchmarkTreeBuild measures full decision-tree construction over a
// realistic provenance size.
func BenchmarkTreeBuild(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	sp, err := synth.Generate(r, synth.Config{MinParams: 8, MaxParams: 8, MinValues: 6, MaxValues: 8}, synth.Disjunction)
	if err != nil {
		b.Fatal(err)
	}
	var examples []dtree.Example
	for i := 0; i < 300; i++ {
		in := sp.Space.RandomInstance(r)
		out := pipeline.Succeed
		if sp.Truth.Satisfied(in) {
			out = pipeline.Fail
		}
		examples = append(examples, dtree.Example{Instance: in, Outcome: out})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := dtree.Build(sp.Space, examples)
		if tree == nil {
			b.Fatal("nil tree")
		}
	}
}

// BenchmarkRegionImplies measures the exact implication check that the
// metrics and the simplifier lean on.
func BenchmarkRegionImplies(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	sp, err := synth.Generate(r, synth.Config{MinParams: 10, MaxParams: 10}, synth.Disjunction)
	if err != nil {
		b.Fatal(err)
	}
	c := sp.Minimal[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := predicate.Implies(sp.Space, c, sp.Truth)
		if err != nil || !ok {
			b.Fatalf("implication broken: %v, %v", ok, err)
		}
	}
}

// BenchmarkExecutorMemoized measures the memoized evaluation fast path.
func BenchmarkExecutorMemoized(b *testing.B) {
	sp, ex := newBenchProblem(b, 11)
	in := sp.Space.RandomInstance(rand.New(rand.NewSource(1)))
	ctx := context.Background()
	if _, err := ex.Evaluate(ctx, in); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Evaluate(ctx, in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemoizedWithTelemetry is BenchmarkExecutorMemoized with a live
// registry attached: the memo-hit fast path gains one nil check plus one
// atomic counter add, and the gate in BENCH_BASELINE.json holds it to the
// uninstrumented baseline's neighborhood.
func BenchmarkMemoizedWithTelemetry(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	sp, err := synth.Generate(r, benchSynth, synth.Disjunction)
	if err != nil {
		b.Fatal(err)
	}
	tel := exec.NewTelemetry(telemetry.NewRegistry(), nil)
	ex := exec.New(sp.Oracle(), provenance.NewStore(sp.Space), exec.WithTelemetry(tel))
	ctx := context.Background()
	if err := core.SeedHistory(ctx, ex, r, 500); err != nil {
		b.Fatal(err)
	}
	in := sp.Space.RandomInstance(rand.New(rand.NewSource(1)))
	if _, err := ex.Evaluate(ctx, in); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Evaluate(ctx, in); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStore seeds a store with every instance of an 8-parameter space
// sampled down to ~1k distinct records, returning the store and a slice of
// recorded instances for lookup probes.
func benchStore(b *testing.B) (*provenance.Store, []pipeline.Instance) {
	b.Helper()
	r := rand.New(rand.NewSource(17))
	sp, err := synth.Generate(r, synth.Config{MinParams: 8, MaxParams: 8, MinValues: 6, MaxValues: 8}, synth.Disjunction)
	if err != nil {
		b.Fatal(err)
	}
	st := provenance.NewStore(sp.Space)
	var ins []pipeline.Instance
	for len(ins) < 1024 {
		in := sp.Space.RandomInstance(r)
		out := pipeline.Succeed
		if sp.Truth.Satisfied(in) {
			out = pipeline.Fail
		}
		if err := st.Add(in, out, "bench"); err != nil {
			continue // duplicate draw
		}
		ins = append(ins, in)
	}
	return st, ins
}

// BenchmarkStoreLookup measures the provenance memoization hit path — the
// single hottest operation of every algorithm (each Evaluate starts with a
// Lookup). The target is zero allocations per hit.
func BenchmarkStoreLookup(b *testing.B) {
	st, ins := benchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := st.Lookup(ins[i%len(ins)]); !ok {
			b.Fatal("lookup missed a recorded instance")
		}
	}
}

// BenchmarkCountSatisfying measures the provenance predicate-counting query
// that DDT suspect screening and the metrics lean on.
func BenchmarkCountSatisfying(b *testing.B) {
	st, ins := benchStore(b)
	s := st.Space()
	c := predicate.And(
		predicate.T(s.At(0).Name, predicate.Eq, ins[0].Value(0)),
		predicate.T(s.At(1).Name, predicate.Eq, ins[0].Value(1)),
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		succ, fail := st.CountSatisfying(c)
		if succ+fail == 0 {
			b.Fatal("count found nothing")
		}
	}
}

// BenchmarkTreeGrow measures decision-tree induction over a provenance-sized
// example set — the per-iteration cost of the DDT loop.
func BenchmarkTreeGrow(b *testing.B) {
	st, _ := benchStore(b)
	recs := st.Snapshot().Records()
	examples := make([]dtree.Example, len(recs))
	for i, r := range recs {
		examples[i] = dtree.Example{Instance: r.Instance, Outcome: r.Outcome}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tree := dtree.Build(st.Space(), examples); tree == nil {
			b.Fatal("nil tree")
		}
	}
}

// BenchmarkTreeRegrow measures the tree work of one DDT session over a
// growing provenance: a Grower starts from one example and gains 8 per
// round, rebuilding its tree after each, up to 300 examples — the regrow
// after every refuted suspect.
func BenchmarkTreeRegrow(b *testing.B) {
	st, _ := benchStore(b)
	recs := st.Snapshot().Records()[:300]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := dtree.NewGrower(st.Space())
		for n, next := 0, 1; n < len(recs); next = min(len(recs), n+8) {
			for ; n < next; n++ {
				if err := g.Add(dtree.Example{Instance: recs[n].Instance, Outcome: recs[n].Outcome}); err != nil {
					b.Fatal(err)
				}
			}
			if tree := g.Build(); tree == nil {
				b.Fatal("nil tree")
			}
		}
	}
}

// --- Durable provenance log ------------------------------------------------

// benchLogSpace builds the 8-parameter space the provlog benchmarks log
// over; both the writer and each replay construct it fresh from the same
// seed, the way a resumed process reconstructs its space from the spec.
func benchLogSpace(b *testing.B) *pipeline.Space {
	b.Helper()
	r := rand.New(rand.NewSource(29))
	sp, err := synth.Generate(r, synth.Config{MinParams: 8, MaxParams: 8, MinValues: 6, MaxValues: 8}, synth.Disjunction)
	if err != nil {
		b.Fatal(err)
	}
	return sp.Space
}

// BenchmarkProvlogAppend measures the write-ahead append path of the
// durable provenance log as Store.Add takes it: a one-record batch, frame
// assembly plus one write syscall.
func BenchmarkProvlogAppend(b *testing.B) {
	space := benchLogSpace(b)
	l, _, err := provlog.Open(b.TempDir(), space)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	r := rand.New(rand.NewSource(31))
	ins := make([]pipeline.Instance, 1024)
	for i := range ins {
		ins[i] = space.RandomInstance(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := provenance.Record{Seq: i, Instance: ins[i%len(ins)], Outcome: pipeline.Succeed, Source: "bench"}
		if err := l.Append([]provenance.Record{rec}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProvlogReplay100k measures rebuilding a fully-indexed provenance
// store from a 100k-record log — the cost of resuming a long debugging
// session. The reported ns/record metric is the amortized per-record replay
// cost (decode, instance reconstruction from codes, and index maintenance).
func BenchmarkProvlogReplay100k(b *testing.B) {
	const records = 100_000
	dir := b.TempDir()
	space := benchLogSpace(b)
	l, st, err := provlog.Open(dir, space)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(37))
	for st.Len() < records {
		in := space.RandomInstance(r)
		out := pipeline.Succeed
		if in.Hash()&1 == 0 {
			out = pipeline.Fail
		}
		if err := st.Add(in, out, "bench"); err != nil {
			continue // duplicate draw
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := provlog.Replay(dir, benchLogSpace(b))
		if err != nil {
			b.Fatal(err)
		}
		if got.Len() != records {
			b.Fatalf("replayed %d records, want %d", got.Len(), records)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/records, "ns/record")
}

// --- Resume by WAL replay --------------------------------------------------

// openBench lazily builds a state directory holding a 1M-record history as
// a WAL. Built once per process; TestMain removes the tree.
var openBench struct {
	once   sync.Once
	base   string
	walDir string
	err    error
}

const openBenchRecords = 1_000_000

func openBenchDir(b *testing.B) string {
	b.Helper()
	openBench.once.Do(func() {
		openBench.err = buildOpenBenchDir()
	})
	if openBench.err != nil {
		b.Fatal(openBench.err)
	}
	return openBench.walDir
}

func buildOpenBenchDir() error {
	base, err := os.MkdirTemp("", "bugdoc-openbench-")
	if err != nil {
		return err
	}
	openBench.base = base
	openBench.walDir = filepath.Join(base, "wal")

	space := openBenchSpace()
	l, st, err := provlog.Open(openBench.walDir, space)
	if err != nil {
		return err
	}
	const chunk = 8192
	vals := make([]pipeline.Value, space.Len())
	entries := make([]provenance.Record, 0, chunk)
	for at := 0; at < openBenchRecords; at += chunk {
		n := chunk
		if at+n > openBenchRecords {
			n = openBenchRecords - at
		}
		entries = entries[:0]
		for k := 0; k < n; k++ {
			x := at + k
			for i := 0; i < space.Len(); i++ {
				dom := space.At(i).Domain
				vals[i] = dom[x%len(dom)]
				x /= len(dom)
			}
			in, err := pipeline.NewInstance(space, vals)
			if err != nil {
				return err
			}
			out := pipeline.Succeed
			if in.Hash()&1 == 0 {
				out = pipeline.Fail
			}
			entries = append(entries, provenance.Record{Instance: in, Outcome: out, Source: "bench"})
		}
		if added, err := st.AddBatch(entries); err != nil || added != n {
			return fmt.Errorf("openbench: AddBatch = %d, %v", added, err)
		}
	}
	return l.Close()
}

// openBenchSpace reconstructs the benchmark space fresh, the way a resumed
// process reconstructs its space from the spec.
func openBenchSpace() *pipeline.Space {
	r := rand.New(rand.NewSource(29))
	sp, err := synth.Generate(r, synth.Config{MinParams: 8, MaxParams: 8, MinValues: 6, MaxValues: 8}, synth.Disjunction)
	if err != nil {
		panic(err)
	}
	return sp.Space
}

func benchOpen(b *testing.B, dir string) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Collect the previous iteration's ~0.5GB store outside the timer:
		// a real resume opens into a fresh heap, not over a dying one.
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		l, st, err := provlog.Open(dir, openBenchSpace())
		if err != nil {
			b.Fatal(err)
		}
		if st.Len() != openBenchRecords {
			b.Fatalf("opened %d records, want %d", st.Len(), openBenchRecords)
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/openBenchRecords, "ns/record")
}

// BenchmarkOpenFullReplay1M measures resuming a 1M-record debugging
// session: Open replays the entire append-ordered WAL, frame by frame, so
// resume cost grows with the session's whole past. CI gates it against
// BENCH_BASELINE.json.
func BenchmarkOpenFullReplay1M(b *testing.B) {
	benchOpen(b, openBenchDir(b))
}

func TestMain(m *testing.M) {
	code := m.Run()
	if openBench.base != "" {
		os.RemoveAll(openBench.base)
	}
	os.Exit(code)
}

// --- Batched dispatch ------------------------------------------------------

// distinctInstances enumerates n distinct instances of s by mixed-radix
// counting over the domains, starting at index start — collision-free as
// long as start+n stays below the space's cardinality.
func distinctInstances(b *testing.B, s *pipeline.Space, start, n int) []pipeline.Instance {
	b.Helper()
	ins := make([]pipeline.Instance, n)
	vals := make([]pipeline.Value, s.Len())
	for k := 0; k < n; k++ {
		x := start + k
		for i := 0; i < s.Len(); i++ {
			dom := s.At(i).Domain
			vals[i] = dom[x%len(dom)]
			x /= len(dom)
		}
		in, err := pipeline.NewInstance(s, vals)
		if err != nil {
			b.Fatal(err)
		}
		ins[k] = in
	}
	return ins
}

// BenchmarkEvaluateBatchDurable is the headline batched-dispatch number:
// one round of 256 fresh hypotheses through an executor over a durable
// store with fsync enabled at 8 workers — one hypothesis round = one WAL
// write = one fsync.
func BenchmarkEvaluateBatchDurable(b *testing.B) {
	space := benchLogSpace(b)
	oracle := exec.OracleFunc(func(_ context.Context, in pipeline.Instance) (pipeline.Outcome, error) {
		if in.Hash()&1 == 0 {
			return pipeline.Fail, nil
		}
		return pipeline.Succeed, nil
	})
	l, st, err := provlog.Open(b.TempDir(), space, provlog.WithSync(true))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	ex := exec.New(oracle, st, exec.WithWorkers(8))
	const round = 256
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ins := distinctInstances(b, space, i*round, round)
		for _, r := range ex.EvaluateBatch(ctx, ins) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/round, "ns/record")
}

// BenchmarkEvaluateFlakyQuorum measures the quorum state machine on the
// batched in-memory path: a deterministic oracle under a 3-of-5 policy
// resolves every fresh instance at exactly MinTrials, so one instance
// costs three trials (each a settled check, an oracle run and a vote),
// the vote-ledger bookkeeping, and the resolved record commit. Gated in
// CI so flaky evaluation stays O(trials) per instance with no hidden
// scans.
func BenchmarkEvaluateFlakyQuorum(b *testing.B) {
	space := benchLogSpace(b)
	oracle := exec.OracleFunc(func(_ context.Context, in pipeline.Instance) (pipeline.Outcome, error) {
		if in.Hash()&1 == 0 {
			return pipeline.Fail, nil
		}
		return pipeline.Succeed, nil
	})
	ex := exec.New(oracle, provenance.NewStore(space),
		exec.WithWorkers(8),
		exec.WithFlakyPolicy(exec.FlakyPolicy{MinTrials: 3, MaxTrials: 5, Quorum: 3}))
	const round = 256
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ins := distinctInstances(b, space, i*round, round)
		for _, r := range ex.EvaluateBatch(ctx, ins) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/round, "ns/instance")
}

// BenchmarkStoreAddBatch measures the in-memory batched commit path (one
// lock acquisition and amortized index maintenance for 1024 records).
func BenchmarkStoreAddBatch(b *testing.B) {
	space := benchLogSpace(b)
	const n = 1024
	ins := distinctInstances(b, space, 0, n)
	entries := make([]provenance.Record, n)
	for i, in := range ins {
		out := pipeline.Succeed
		if in.Hash()&1 == 0 {
			out = pipeline.Fail
		}
		entries[i] = provenance.Record{Instance: in, Outcome: out, Source: "bench"}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := provenance.NewStoreWithCapacity(space, n)
		added, err := st.AddBatch(entries)
		if err != nil || added != n {
			b.Fatalf("AddBatch = %d, %v", added, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/record")
}

// --- Concurrent writers -----------------------------------------------------

// BenchmarkStoreAddParallel measures Add throughput into a fresh volatile
// store from 8 concurrent workers, each committing its own slice of
// distinct instances — the shape of flaky quorums committing as they
// resolve on the worker pool. Every commit serializes on the store lock.
func BenchmarkStoreAddParallel(b *testing.B) {
	space := benchLogSpace(b)
	const workers, per = 8, 512
	ins := distinctInstances(b, space, 0, workers*per)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := provenance.NewStore(space)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(chunk []pipeline.Instance) {
				defer wg.Done()
				for _, in := range chunk {
					out := pipeline.Succeed
					if in.Hash()&1 == 0 {
						out = pipeline.Fail
					}
					if err := st.Add(in, out, "bench"); err != nil {
						b.Error(err)
						return
					}
				}
			}(ins[w*per : (w+1)*per])
		}
		wg.Wait()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(workers*per), "ns/record")
}

// BenchmarkStoreAddBatchParallel is the batched twin: 8 workers each
// commit their slice as AddBatch rounds of 128 into one store.
func BenchmarkStoreAddBatchParallel(b *testing.B) {
	space := benchLogSpace(b)
	const workers, per, round = 8, 512, 128
	ins := distinctInstances(b, space, 0, workers*per)
	entries := make([]provenance.Record, len(ins))
	for i, in := range ins {
		out := pipeline.Succeed
		if in.Hash()&1 == 0 {
			out = pipeline.Fail
		}
		entries[i] = provenance.Record{Instance: in, Outcome: out, Source: "bench"}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := provenance.NewStore(space)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(chunk []provenance.Record) {
				defer wg.Done()
				for at := 0; at < len(chunk); at += round {
					if _, err := st.AddBatch(chunk[at : at+round]); err != nil {
						b.Error(err)
						return
					}
				}
			}(entries[w*per : (w+1)*per])
		}
		wg.Wait()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(workers*per), "ns/record")
}

// BenchmarkShortcutLinear measures one full Shortcut pass on a 10-parameter
// pipeline (the paper's headline cost: linear in |P|).
func BenchmarkShortcutLinear(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(int64(i + 1)))
		sp, err := synth.Generate(r, synth.Config{MinParams: 10, MaxParams: 10, MinValues: 4, MaxValues: 6}, synth.SingleTriple)
		if err != nil {
			b.Fatal(err)
		}
		ex := exec.New(sp.Oracle(), provenance.NewStore(sp.Space))
		if err := core.SeedHistory(ctx, ex, r, 500); err != nil {
			b.Fatal(err)
		}
		seeded := ex.Spent()
		if _, err := core.ShortcutAuto(ctx, ex); err != nil {
			b.Fatal(err)
		}
		if ex.Spent()-seeded > 10 {
			b.Fatalf("Shortcut spent %d instances on 10 parameters", ex.Spent()-seeded)
		}
	}
}
