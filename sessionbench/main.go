// Command sessionbench is the repository's end-to-end benchmark. It runs
// BugDoc debugging sessions as a closed loop with one client — the next
// session starts only after the previous one has finished and its answer
// has been checked — over inputs it generates from a seed before timing
// starts, and prints its metrics, the last line being one JSON object:
//
//	bash sessionbench/run.sh --workload session-ddt --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs every session
// twice, untraced and traced, and reports the per-layer split: spans
// around the public calls the benchmark makes, plus the counters the
// program exports through bugdoc.WithTelemetry, and the tracing overhead.
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sessionbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload: session-ddt or durable-resume")
		seed    = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds = flag.Float64("seconds", 20, "how long the run measures")
		trace   = flag.Int("trace", 0, "0 for the end-to-end metrics, 1 for the traced per-layer split")
		scratch = flag.String("scratch", ".bench_build", "directory for durable session state and the spans file")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want --seconds > 0 and --trace 0 or 1")
	}
	// One process on at most two threads, the machine the benchmark was
	// defined on.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		return err
	}
	stateRoot, err := os.MkdirTemp(*scratch, "state-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(stateRoot)
	w, err := newWorkload(*name, fullScale, stateRoot)
	if err != nil {
		return err
	}
	fmt.Printf("sessionbench: workload %s, seed %d, %gs, trace %d\n", *name, *seed, *seconds, *trace)
	res, err := measure(context.Background(), w, config{
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		traceOut: filepath.Join(*scratch, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed)),
		log:      os.Stdout,
	})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
