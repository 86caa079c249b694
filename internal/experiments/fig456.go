package experiments

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/provenance"
	"repro/internal/synth"
)

// Fig4Config configures the conciseness experiment (Figure 4).
type Fig4Config struct {
	Pipelines int // per scenario; default 8
	Seed      int64
	Synth     synth.Config
}

// Fig4Result aggregates the two conciseness measures per method over all
// three scenarios, using the DDT budget group (the richest instance set).
type Fig4Result struct {
	// ParamsPerCause is Figure 4a: average parameters per asserted cause.
	ParamsPerCause map[Method]float64
	// LogAssertedPerActual is Figure 4b.
	LogAssertedPerActual map[Method]float64
}

// Fig4 runs FindAll over the three scenarios and reports conciseness.
func Fig4(ctx context.Context, cfg Fig4Config) (*Fig4Result, error) {
	if cfg.Pipelines <= 0 {
		cfg.Pipelines = 8
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	aggs := make(map[Method]*metrics.Aggregate)
	for _, m := range AllMethods {
		aggs[m] = &metrics.Aggregate{}
	}
	rgen := newSeedSequence(cfg.Seed)
	for _, sc := range []synth.Scenario{synth.SingleTriple, synth.SingleConjunction, synth.Disjunction} {
		for pi := 0; pi < cfg.Pipelines; pi++ {
			sp, err := synth.Generate(rgen.rand(), cfg.Synth, sc)
			if err != nil {
				return nil, err
			}
			prob, err := newSynthProblem(ctx, sp, rgen)
			if err != nil {
				return nil, err
			}
			groupDNF, groupEx, spent, err := prob.runBugDoc(ctx, core.AlgoDDT, true, -1, rgen.next())
			if err != nil {
				return nil, err
			}
			budget := spent
			if budget < 1 {
				budget = 1
			}
			smacEx, err := prob.runSMAC(ctx, budget, rgen.next())
			if err != nil {
				return nil, err
			}
			for _, m := range AllMethods {
				got, err := runGroupMethod(ctx, prob, m, core.AlgoDDT, groupDNF, groupEx, smacEx, true, budget, rgen.next())
				if err != nil {
					return nil, err
				}
				ev, err := metrics.Judge(prob.space, got, prob.truth, prob.minimal)
				if err != nil {
					return nil, err
				}
				aggs[m].Add(ev)
			}
		}
	}
	res := &Fig4Result{
		ParamsPerCause:       make(map[Method]float64),
		LogAssertedPerActual: make(map[Method]float64),
	}
	for _, m := range AllMethods {
		res.ParamsPerCause[m] = aggs[m].ParamsPerCause()
		res.LogAssertedPerActual[m] = aggs[m].LogAssertedPerActual()
	}
	return res, nil
}

// Fig5Config configures the instances-vs-parameters sweep (Figure 5).
type Fig5Config struct {
	// ParamCounts are the x-axis values (default 3,5,7,9,11,13,15).
	ParamCounts []int
	// PipelinesPer is the number of pipelines averaged per point (default 6).
	PipelinesPer int
	Seed         int64
	// MinValues/MaxValues bound domain sizes (default 5..10 to keep sweeps
	// quick; the paper's full range is 5..30).
	MinValues, MaxValues int
}

// Fig5Point is one (algorithm, |P|) measurement.
type Fig5Point struct {
	Params    int
	Instances float64 // average new instances executed
}

// Fig5Result maps each BugDoc algorithm to its scaling curve.
type Fig5Result struct {
	Curves map[Method][]Fig5Point
}

// Fig5 measures the number of new instances each algorithm executes as the
// parameter count grows. The paper's Shortcut and Stacked Shortcut scale
// linearly, one execution per differing parameter and pass. This
// Shortcut substitutes groups of parameters (see core.Shortcut): a pass
// can cost up to 2|P| − 1 executions, which shows in the smallest spaces,
// but with one short planted conjunction, as here, its count grows with
// the logarithm of |P|. DDT spends more and grows faster.
func Fig5(ctx context.Context, cfg Fig5Config) (*Fig5Result, error) {
	if len(cfg.ParamCounts) == 0 {
		cfg.ParamCounts = []int{3, 5, 7, 9, 11, 13, 15}
	}
	if cfg.PipelinesPer <= 0 {
		cfg.PipelinesPer = 6
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MinValues <= 0 {
		cfg.MinValues = 5
	}
	if cfg.MaxValues <= 0 {
		cfg.MaxValues = 10
	}
	res := &Fig5Result{Curves: make(map[Method][]Fig5Point)}
	rgen := newSeedSequence(cfg.Seed)
	for _, nParams := range cfg.ParamCounts {
		totals := map[Method]float64{}
		for pi := 0; pi < cfg.PipelinesPer; pi++ {
			scfg := synth.Config{
				MinParams: nParams, MaxParams: nParams,
				MinValues: cfg.MinValues, MaxValues: cfg.MaxValues,
			}
			sp, err := synth.Generate(rgen.rand(), scfg, synth.SingleConjunction)
			if err != nil {
				return nil, err
			}
			prob, err := newSynthProblem(ctx, sp, rgen)
			if err != nil {
				return nil, err
			}
			for _, m := range []Method{MethodShortcut, MethodStacked, MethodDDT} {
				_, _, spent, err := prob.runBugDoc(ctx, methodAlgorithm(m), m == MethodDDT, -1, rgen.next())
				if err != nil {
					return nil, err
				}
				totals[m] += float64(spent)
			}
		}
		for _, m := range []Method{MethodShortcut, MethodStacked, MethodDDT} {
			res.Curves[m] = append(res.Curves[m], Fig5Point{
				Params:    nParams,
				Instances: totals[m] / float64(cfg.PipelinesPer),
			})
		}
	}
	return res, nil
}

// Fig6Config configures the parallel scale-up experiment (Figure 6).
type Fig6Config struct {
	// Workers are the pool sizes compared (default 1,2,4,8).
	Workers []int
	// Latency is the simulated per-instance execution time (default 5ms;
	// the real pipelines take 20 minutes to 10 hours).
	Latency time.Duration
	Seed    int64
	Synth   synth.Config
}

// Fig6Point is one measurement of the sweep.
type Fig6Point struct {
	Workers   int
	Elapsed   time.Duration
	Instances int
	Speedup   float64 // vs the 1-worker run
}

// Fig6Result is the scale-up curve.
type Fig6Result struct {
	Points []Fig6Point
}

// Fig6 runs DDT FindAll on one synthetic pipeline with increasing worker
// counts over a latency-injected oracle and reports the wall-clock
// speedup. Instances within one suspect verification run in parallel, so
// the makespan shrinks near-linearly until the per-suspect test count caps
// the parallelism.
func Fig6(ctx context.Context, cfg Fig6Config) (*Fig6Result, error) {
	if len(cfg.Workers) == 0 {
		cfg.Workers = []int{1, 2, 4, 8}
	}
	if cfg.Latency <= 0 {
		cfg.Latency = 5 * time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	rgen := newSeedSequence(cfg.Seed)
	sp, err := synth.Generate(rgen.rand(), cfg.Synth, synth.Disjunction)
	if err != nil {
		return nil, err
	}
	slow := exec.LatencyOracle(sp.Oracle(), cfg.Latency)
	prob, err := newSynthProblem(ctx, sp, rgen)
	if err != nil {
		return nil, err
	}
	algoSeed := rgen.next()

	res := &Fig6Result{}
	var base time.Duration
	for _, w := range cfg.Workers {
		st := provenance.NewStore(prob.space)
		for _, r := range prob.seeds {
			if err := st.Add(r.Instance, r.Outcome, "seed"); err != nil {
				return nil, err
			}
		}
		ex := exec.New(slow, st, exec.WithWorkers(w))
		start := time.Now()
		_, err := core.DebugDecisionTrees(ctx, ex, core.DDTOptions{
			Rand:            newSeedSequence(algoSeed).rand(),
			FindAll:         true,
			MaxSuspectTests: 16,
		})
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		if w == cfg.Workers[0] {
			base = elapsed
		}
		speedup := 0.0
		if elapsed > 0 {
			speedup = float64(base) / float64(elapsed)
		}
		res.Points = append(res.Points, Fig6Point{
			Workers: w, Elapsed: elapsed, Instances: ex.Spent(), Speedup: speedup,
		})
	}
	return res, nil
}
