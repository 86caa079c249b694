package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Registry is a named collection of metrics with get-or-create lookup and
// a consistent-enough snapshot: Snapshot reads every metric atomically, so
// counters are monotone across successive snapshots and a histogram's
// bucket counts always sum to the count it reports, even while writers are
// mid-flight. A nil *Registry is a valid no-op: its constructors return
// nil metric handles (themselves no-ops) and its Snapshot is empty, which
// is the zero-cost path for uninstrumented use.
//
// Registries also serve HTTP: a Registry is an http.Handler that responds
// with the Snapshot JSON, mounted by cmd/bugdoc at /debug/vars.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() int64
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		gaugeFns: make(map[string]func() int64),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Nil
// registries return a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil registries
// return a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a callback gauge: fn is evaluated at snapshot time,
// so live state (a store's record count, a queue length) can be exposed
// with zero write-path cost. Re-registering a name replaces the callback.
// fn must be safe to call concurrently with anything. No-op on a nil
// registry.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = fn
}

// Histogram returns the named histogram, creating it on first use. Nil
// registries return a nil (no-op) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// BucketCount is one non-empty histogram bucket of a snapshot: N
// observations with values below Le (and at or above the previous
// bucket's Le).
type BucketCount struct {
	// Le is the bucket's exclusive upper bound, a power of two
	// (math.MaxInt64 for the overflow bucket).
	Le int64 `json:"le"`
	// N is the number of observations in the bucket.
	N int64 `json:"n"`
}

// HistogramSnapshot is one histogram's state at snapshot time. Count
// always equals the sum of the bucket counts (it is derived from them, not
// read separately), so a snapshot taken mid-write is internally
// consistent; Sum may trail Count by in-flight observations.
type HistogramSnapshot struct {
	// Count is the total number of observations.
	Count int64 `json:"count"`
	// Sum is the sum of all observed values.
	Sum int64 `json:"sum"`
	// Buckets lists the non-empty buckets in ascending bound order.
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1) of the
// recorded distribution: the bound of the first bucket at which the
// cumulative count reaches q·Count. Power-of-two buckets make it exact to
// within a factor of two.
func (h HistogramSnapshot) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	want := int64(math.Ceil(q * float64(h.Count)))
	if want < 1 {
		want = 1
	}
	var cum int64
	for _, b := range h.Buckets {
		cum += b.N
		if cum >= want {
			return b.Le
		}
	}
	return math.MaxInt64
}

// Mean returns the mean observed value (0 when empty).
func (h HistogramSnapshot) Mean() int64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / h.Count
}

// Snapshot is a point-in-time view of every metric in a registry, in the
// stable JSON shape served at /debug/vars: three maps keyed by metric
// name (encoding/json emits map keys sorted, so the rendering is
// deterministic). Callback gauges appear merged into Gauges.
type Snapshot struct {
	// Counters holds every counter's value by name.
	Counters map[string]int64 `json:"counters"`
	// Gauges holds every gauge's (and callback gauge's) value by name.
	Gauges map[string]int64 `json:"gauges"`
	// Histograms holds every histogram's folded state by name.
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every registered metric. Each value is read
// atomically; the snapshot as a whole is not a single instant, but
// counters are monotone between successive snapshots and each histogram is
// internally consistent. A nil registry snapshots empty (non-nil, empty
// maps, so the JSON shape is stable either way).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	// Collect the handles under the lock, read the values outside it:
	// gauge callbacks may themselves take locks (a store's record count)
	// and must not run under the registry mutex.
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	gaugeFns := make(map[string]func() int64, len(r.gaugeFns))
	for k, v := range r.gaugeFns {
		gaugeFns[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	for name, c := range counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range gauges {
		s.Gauges[name] = g.Load()
	}
	for name, fn := range gaugeFns {
		s.Gauges[name] = fn()
	}
	for name, h := range hists {
		buckets, sum := h.snapshot()
		hs := HistogramSnapshot{Sum: sum}
		for b, n := range buckets {
			if n == 0 {
				continue
			}
			le := int64(math.MaxInt64)
			if b < histBuckets-1 {
				le = int64(1) << uint(b)
			}
			hs.Count += n
			hs.Buckets = append(hs.Buckets, BucketCount{Le: le, N: n})
		}
		s.Histograms[name] = hs
	}
	return s
}

// ServeHTTP implements http.Handler: it responds with the Snapshot JSON
// (indented, sorted keys), the payload cmd/bugdoc mounts at /debug/vars.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(r.Snapshot())
}

// Table renders the snapshot as the human-readable summary cmd/bugdoc
// prints under -stats: counters and gauges aligned name/value, histograms
// with count, p50, p99, and mean. Metric names ending in "_ns" format
// their histogram statistics as durations.
func (s Snapshot) Table() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintf(&b, "counters:\n")
		for _, n := range names {
			fmt.Fprintf(&b, "  %-36s %12d\n", n, s.Counters[n])
		}
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintf(&b, "gauges:\n")
		for _, n := range names {
			fmt.Fprintf(&b, "  %-36s %12d\n", n, s.Gauges[n])
		}
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintf(&b, "histograms:%28s%10s%10s%10s\n", "count", "p50", "p99", "mean")
		for _, n := range names {
			h := s.Histograms[n]
			format := func(v int64) string { return fmt.Sprintf("%d", v) }
			if strings.HasSuffix(n, "_ns") {
				format = func(v int64) string { return time.Duration(v).Round(time.Microsecond).String() }
			}
			fmt.Fprintf(&b, "  %-36s%10d%10s%10s%10s\n", n, h.Count,
				format(h.Quantile(0.50)), format(h.Quantile(0.99)), format(h.Mean()))
		}
	}
	if b.Len() == 0 {
		return "no telemetry recorded\n"
	}
	return b.String()
}
