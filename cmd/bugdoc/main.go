// Command bugdoc debugs a computational pipeline from the command line.
// See docs/CLI.md for the full reference with a worked kill → resume
// session.
//
// Input modes (exactly one):
//
//	# Historical mode: debug a provenance log (no new executions possible).
//	bugdoc -spec pipeline.json -provenance runs.csv -algo ddt -goal all
//
//	# Demo mode: debug one of the built-in simulated pipelines live.
//	bugdoc -demo ml -algo shortcut
//	bugdoc -demo polygamy -algo ddt -goal all
//	bugdoc -demo gan -algo stacked
//
// Search flags: -algo picks shortcut | stacked | ddt, -goal picks one
// (any minimal definitive root cause) or all, -budget caps new pipeline
// executions (-1 = unlimited), -workers sizes the parallel dispatch pool,
// -seed fixes the sampling randomness, and -latency simulates expensive
// pipelines by delaying every oracle call.
//
// Durability flags: -state-dir write-ahead logs every execution so a
// killed run resumes (with -resume requiring prior state) without
// re-spending oracle budget:
//
//	bugdoc -demo polygamy -algo ddt -goal all -state-dir ./state
//	bugdoc -demo polygamy -algo ddt -goal all -state-dir ./state -resume
//
//	# Crash-safe durable mode: -fsync fsyncs every log write. Each
//	# algorithm round commits its batched hypothesis set with one write,
//	# so durability costs per round, not per instance; omit the flag to
//	# leave flushing to the OS.
//	bugdoc -demo polygamy -algo ddt -goal all -state-dir ./state \
//	    -workers 8 -fsync
//
// Flaky-oracle flags: -trials MIN:MAX:Q treats the oracle as
// non-deterministic and resolves every new instance by quorum — it is
// dispatched at least MIN and at most MAX times, its recorded outcome is
// the majority verdict once Q agreeing trials accumulate, and an exact tie
// at MAX records "inconclusive" (evidence for neither side). Every trial
// consumes one unit of -budget and, with -state-dir, is write-ahead logged
// individually, so a killed run resumes mid-quorum with its accumulated
// votes. -flake RATE corrupts each oracle verdict with the given
// probability (deterministically, keyed by -seed) to simulate a flaky
// pipeline against the built-in demos:
//
//	bugdoc -demo polygamy -algo ddt -goal all -flake 0.05 -trials 3:7:3
//
// Observability flags: -stats prints a runtime telemetry summary when the
// session ends — including when it is interrupted with Ctrl-C — covering
// memo hits, oracle latency percentiles, and WAL flush costs. -events
// appends a JSON-lines journal of session events (oracle trial spans,
// batch dispatches, WAL writes) to a file.
// -debug-addr serves the live metric registry at /debug/vars (JSON) and
// the Go profiler at /debug/pprof/ while the session runs; ":0" picks a
// free port and the chosen address is printed to stderr:
//
//	bugdoc -demo polygamy -algo ddt -goal all -workers 8 \
//	    -stats -debug-addr 127.0.0.1:6060 -events events.jsonl
//
// The algorithms submit hypothesis sets (DDT suspect verifications,
// stacked-shortcut candidate rounds) as batches: the executor dedupes them
// against memoized provenance, dispatches the misses across -workers
// workers, and commits the results through one provenance batch append.
//
// The spec file declares the parameter space (see internal/spec); the
// provenance CSV has one column per parameter plus an "outcome" column with
// values "succeed"/"fail".
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gansim"
	"repro/internal/mlsim"
	"repro/internal/pipeline"
	"repro/internal/polygamy"
	"repro/internal/provenance"
	"repro/internal/provlog"
	"repro/internal/spec"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bugdoc:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		specPath = flag.String("spec", "", "pipeline spec JSON (historical mode)")
		provPath = flag.String("provenance", "", "provenance CSV (historical mode)")
		demo     = flag.String("demo", "", "built-in pipeline: ml | polygamy | gan")
		algoName = flag.String("algo", "ddt", "algorithm: shortcut | stacked | ddt")
		goal     = flag.String("goal", "one", "goal: one | all")
		budget   = flag.Int("budget", -1, "max new pipeline executions (-1 = unlimited)")
		workers  = flag.Int("workers", 4, "parallel execution workers")
		seed     = flag.Int64("seed", 1, "randomness seed")
		stateDir = flag.String("state-dir", "", "write-ahead log provenance here; reopening resumes it")
		resume   = flag.Bool("resume", false, "require existing state in -state-dir and continue it")
		latency  = flag.Duration("latency", 0, "simulated per-execution latency (e.g. 50ms)")
		fsync    = flag.Bool("fsync", false, "fsync every WAL write (default: leave flushing to the OS)")
		trials   = flag.String("trials", "", "flaky-oracle quorum as MIN:MAX:Q — dispatch each instance MIN..MAX times, resolve by majority once Q trials agree (empty = deterministic single-trial)")
		flake    = flag.Float64("flake", 0, "corrupt each oracle verdict with this probability (deterministic per -seed; simulates a flaky pipeline)")
		stats    = flag.Bool("stats", false, "print a runtime telemetry summary at exit (also on Ctrl-C)")
		dbgAddr  = flag.String("debug-addr", "", "serve live /debug/vars and /debug/pprof on this address (e.g. 127.0.0.1:6060; :0 picks a port)")
		events   = flag.String("events", "", "append a JSON-lines journal of session events to this file")
	)
	flag.Parse()

	flaky, ftErr := parseTrials(*trials)
	if ftErr != nil {
		return ftErr
	}

	var algo core.Algorithm
	switch *algoName {
	case "shortcut":
		algo = core.AlgoShortcut
	case "stacked":
		algo = core.AlgoStackedShortcut
	case "ddt":
		algo = core.AlgoDDT
	default:
		return fmt.Errorf("unknown algorithm %q", *algoName)
	}

	// Observability: one registry feeds -stats, -debug-addr, and the
	// internal instrumentation; the journal is independent so -events works
	// without the counters and vice versa.
	var (
		reg     *telemetry.Registry
		journal *telemetry.Journal
	)
	if *stats || *dbgAddr != "" {
		reg = telemetry.NewRegistry()
	}
	if *events != "" {
		j, err := telemetry.OpenJournal(*events)
		if err != nil {
			return err
		}
		defer j.Close()
		journal = j
	}
	if *stats {
		// Deferred so an interrupted or failed session still reports what it
		// did before dying.
		defer func() {
			fmt.Printf("\n--- runtime telemetry ---\n%s", reg.Snapshot().Table())
		}()
	}
	if *dbgAddr != "" {
		ln, err := net.Listen("tcp", *dbgAddr)
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		mux.Handle("/debug/vars", reg)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		srv := &http.Server{Handler: mux}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "bugdoc: debug server on http://%s/debug/vars\n", ln.Addr())
	}

	var (
		st     *provenance.Store
		oracle exec.Oracle
		err    error
	)
	switch {
	case *demo != "":
		st, oracle, err = demoPipeline(*demo)
	case *specPath != "" && *provPath != "":
		st, oracle, err = historical(*specPath, *provPath)
	default:
		return fmt.Errorf("need either -demo, or -spec with -provenance")
	}
	if err != nil {
		return err
	}
	if *flake > 0 {
		oracle = synth.NoisyOracle(oracle, synth.SymmetricNoise(*flake, uint64(*seed)))
	}
	if *latency > 0 {
		oracle = exec.LatencyOracle(oracle, *latency)
	}
	resumed := -1
	if *resume && *stateDir == "" {
		return fmt.Errorf("-resume requires -state-dir")
	}
	if *stateDir != "" {
		if *resume && !provlog.Exists(*stateDir) {
			return fmt.Errorf("-resume: no session state in %s", *stateDir)
		}
		var logOpts []provlog.Option
		if *fsync {
			logOpts = append(logOpts, provlog.WithSync(true))
		}
		if reg != nil || journal != nil {
			logOpts = append(logOpts, provlog.WithMetrics(provlog.NewMetrics(reg, journal)))
		}
		lg, durable, err := provlog.Open(*stateDir, st.Space(), logOpts...)
		if err != nil {
			return err
		}
		defer lg.Close()
		resumed = durable.Len()
		// Carry any provenance loaded outside the log (the historical CSV)
		// into the durable store; records already replayed are skipped.
		if _, err := durable.AddBatch(st.Snapshot().Records()); err != nil {
			return err
		}
		st = durable
	}

	ctx, unnotify := signal.NotifyContext(context.Background(), os.Interrupt)
	defer unnotify()
	exOpts := []exec.Option{exec.WithBudget(*budget), exec.WithWorkers(*workers)}
	if flaky != nil {
		exOpts = append(exOpts, exec.WithFlakyPolicy(*flaky))
	}
	if tel := exec.NewTelemetry(reg, journal); tel != nil {
		exOpts = append(exOpts, exec.WithTelemetry(tel))
	}
	ex := exec.New(oracle, st, exOpts...)
	r := rand.New(rand.NewSource(*seed))
	if err := core.SeedHistory(ctx, ex, r, 0); err != nil {
		return fmt.Errorf("seeding history: %w", err)
	}
	opts := core.Options{Rand: r}
	var causes interface{ String() string }
	if *goal == "all" {
		causes, err = core.FindAll(ctx, ex, algo, opts)
	} else {
		causes, err = core.FindOne(ctx, ex, algo, opts)
	}
	if err != nil {
		return err
	}
	succ, fail := st.Outcomes()
	fmt.Printf("algorithm:       %v\n", algo)
	fmt.Printf("provenance:      %d instances (%d succeed, %d fail)\n", st.Len(), succ, fail)
	if resumed >= 0 {
		fmt.Printf("resumed:         %d instances replayed from %s\n", resumed, *stateDir)
	}
	fmt.Printf("new executions:  %d\n", ex.Spent())
	fmt.Printf("root causes:     %v\n", causes)
	return nil
}

// parseTrials parses the -trials flag: "" means nil (deterministic
// single-trial execution), otherwise "MIN:MAX:Q" with 1 <= MIN <= MAX,
// MAX >= 2, and 1 <= Q <= MAX.
func parseTrials(s string) (*exec.FlakyPolicy, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("-trials: want MIN:MAX:Q (e.g. 3:7:3), got %q", s)
	}
	min, err1 := strconv.Atoi(parts[0])
	max, err2 := strconv.Atoi(parts[1])
	q, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil {
		return nil, fmt.Errorf("-trials: want integers MIN:MAX:Q (e.g. 3:7:3), got %q", s)
	}
	p := exec.FlakyPolicy{MinTrials: min, MaxTrials: max, Quorum: q}
	if !p.Enabled() {
		return nil, fmt.Errorf("-trials: MAX must be at least 2 (got %q); omit the flag for deterministic execution", s)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("-trials: %v", err)
	}
	return &p, nil
}

// historical loads the spec and provenance and replays the log.
func historical(specPath, provPath string) (*provenance.Store, exec.Oracle, error) {
	sf, err := os.Open(specPath)
	if err != nil {
		return nil, nil, err
	}
	defer sf.Close()
	space, err := spec.Read(sf)
	if err != nil {
		return nil, nil, err
	}
	pf, err := os.Open(provPath)
	if err != nil {
		return nil, nil, err
	}
	defer pf.Close()
	st, err := provenance.ReadCSV(space, pf, "csv")
	if err != nil {
		return nil, nil, err
	}
	var ins []pipeline.Instance
	var outs []pipeline.Outcome
	for _, rec := range st.Snapshot().Records() {
		ins = append(ins, rec.Instance)
		outs = append(outs, rec.Outcome)
	}
	oracle, err := exec.NewHistoricalOracle(ins, outs)
	if err != nil {
		return nil, nil, err
	}
	return st, oracle, nil
}

// demoPipeline instantiates one of the built-in simulators.
func demoPipeline(name string) (*provenance.Store, exec.Oracle, error) {
	switch name {
	case "ml":
		p, err := mlsim.New()
		if err != nil {
			return nil, nil, err
		}
		return provenance.NewStore(p.Space), p.Oracle(), nil
	case "polygamy":
		p, err := polygamy.New()
		if err != nil {
			return nil, nil, err
		}
		return provenance.NewStore(p.Space), p.Oracle(), nil
	case "gan":
		p, err := gansim.New()
		if err != nil {
			return nil, nil, err
		}
		return provenance.NewStore(p.Space), p.Oracle(), nil
	default:
		return nil, nil, fmt.Errorf("unknown demo %q (want ml, polygamy, or gan)", name)
	}
}
