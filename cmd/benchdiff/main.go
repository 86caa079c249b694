// Command benchdiff gates benchmark regressions: it parses `go test
// -bench` output, takes the median ns/op per benchmark across repeated
// counts, and compares the gated benchmarks against a committed baseline,
// failing when any regresses beyond the threshold.
//
//	go test -run xxx -bench 'StoreLookup$|TreeGrow$' -benchtime=100ms -count=5 . | tee bench.out
//	benchdiff -baseline BENCH_BASELINE.json -bench bench.out
//
// Gate with time-based benchtime and several counts: iteration-count
// samples (e.g. -benchtime=3x) of sub-microsecond benchmarks measure
// mostly scheduler noise, and a median over a handful of 100ms runs is
// what makes a 25% threshold meaningful.
//
// The baseline is a JSON object mapping benchmark names (GOMAXPROCS
// suffix stripped, so "BenchmarkStoreLookup-8" gates as
// "BenchmarkStoreLookup") to median ns/op. Only names present in the
// baseline gate the build; a gated benchmark missing from the results is
// itself a failure, so coverage cannot silently rot. Improvements beyond
// the threshold are reported as a hint to refresh the baseline.
//
// Maintenance:
//
//	# refresh the medians of the existing gated set
//	benchdiff -baseline BENCH_BASELINE.json -bench bench.out -update
//	# (re)define the gated set and write its medians
//	benchdiff -baseline BENCH_BASELINE.json -bench bench.out -update \
//	    -gate BenchmarkStoreLookup,BenchmarkTreeGrow
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

var errRegressed = fmt.Errorf("benchmark regression over threshold")

func run() error {
	var (
		baselinePath = flag.String("baseline", "BENCH_BASELINE.json", "baseline JSON of gated medians")
		benchPath    = flag.String("bench", "-", "go test -bench output to compare (\"-\" = stdin)")
		threshold    = flag.Float64("threshold", 0.25, "fail when median ns/op regresses beyond this fraction")
		update       = flag.Bool("update", false, "rewrite the baseline with the measured medians instead of gating")
		gate         = flag.String("gate", "", "with -update: comma-separated benchmark names replacing the gated set")
	)
	flag.Parse()

	medians, err := readMedians(*benchPath)
	if err != nil {
		return err
	}
	if len(medians) == 0 {
		return fmt.Errorf("no benchmark results in %s", *benchPath)
	}

	if *update {
		return writeBaseline(*baselinePath, medians, *gate)
	}

	baseline, err := readBaseline(*baselinePath)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := false
	for _, name := range names {
		old := baseline[name]
		now, ok := medians[name]
		if !ok {
			fmt.Printf("FAIL %-44s gated benchmark missing from results\n", name)
			failed = true
			continue
		}
		delta := (now - old) / old
		switch {
		case delta > *threshold:
			fmt.Printf("FAIL %-44s %12.1f -> %12.1f ns/op  (%+.1f%% > %.0f%%)\n",
				name, old, now, 100*delta, 100**threshold)
			failed = true
		case delta < -*threshold:
			fmt.Printf("ok   %-44s %12.1f -> %12.1f ns/op  (%+.1f%%, consider -update)\n",
				name, old, now, 100*delta)
		default:
			fmt.Printf("ok   %-44s %12.1f -> %12.1f ns/op  (%+.1f%%)\n", name, old, now, 100*delta)
		}
	}
	if failed {
		return errRegressed
	}
	return nil
}

// benchLine matches one result line of go test -bench output, capturing
// the benchmark name and its ns/op.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+(?:e[+-]?[0-9]+)?) ns/op`)

// stripProcs removes the trailing -GOMAXPROCS suffix so results compare
// across machines with different core counts.
func stripProcs(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// readMedians parses the bench output and reduces repeated counts of each
// benchmark to the median ns/op.
func readMedians(path string) (map[string]float64, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	samples := make(map[string][]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		name := stripProcs(m[1])
		samples[name] = append(samples[name], ns)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	medians := make(map[string]float64, len(samples))
	for name, vals := range samples {
		sort.Float64s(vals)
		n := len(vals)
		if n%2 == 1 {
			medians[name] = vals[n/2]
		} else {
			medians[name] = (vals[n/2-1] + vals[n/2]) / 2
		}
	}
	return medians, nil
}

func readBaseline(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	baseline := make(map[string]float64)
	if err := json.Unmarshal(data, &baseline); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(baseline) == 0 {
		return nil, fmt.Errorf("%s gates no benchmarks", path)
	}
	return baseline, nil
}

// writeBaseline refreshes the gated medians: the names come from -gate
// when given, from the existing baseline otherwise.
func writeBaseline(path string, medians map[string]float64, gate string) error {
	var names []string
	if gate != "" {
		for _, n := range strings.Split(gate, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	} else {
		old, err := readBaseline(path)
		if err != nil {
			return fmt.Errorf("-update without -gate needs an existing baseline: %w", err)
		}
		for n := range old {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	out := make(map[string]float64, len(names))
	for _, n := range names {
		med, ok := medians[n]
		if !ok {
			return fmt.Errorf("gated benchmark %s missing from results", n)
		}
		out[n] = med
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s with %d gated benchmarks\n", path, len(out))
	return nil
}
