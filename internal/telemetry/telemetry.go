// Package telemetry is the runtime instrumentation layer: dependency-free
// atomic counters, gauges, and power-of-two-bucket latency histograms, a
// Registry that snapshots everything into a stable JSON shape (the
// `/debug/vars` payload of cmd/bugdoc), and a structured JSON-lines
// session event Journal. Every layer of the engine — the executor, the
// provenance store, the write-ahead log, and the algorithm drivers —
// exposes its hot-path counters through this package so a live session can
// be observed without perturbing it.
//
// The design constraint is that instrumentation must cost nothing when it
// is off and almost nothing when it is on: a counter or gauge write is one
// atomic add and a histogram observation two (its bucket and its sum),
// with no allocation and no lock, and every metric type treats a nil
// receiver as a no-op (so uninstrumented components skip a single
// pointer-nil branch and nothing else). The memoized-evaluation and
// batch-append baselines in BENCH_BASELINE.json are gated with telemetry
// both off and on (BenchmarkExecutorMemoized, BenchmarkMemoizedWithTelemetry).
//
// Not to be confused with internal/metrics, which implements the *paper
// evaluation* scoring of Section 5 (precision/recall/F-measure of asserted
// root causes against planted ground truth); this package is *runtime*
// observability of the engine itself. See docs/ARCHITECTURE.md.
package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter is a valid no-op target, so instrumented
// code paths can hold nil metric handles when telemetry is disabled and
// still call Inc unconditionally.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds d (d must be >= 0 to keep the counter monotone; Add does not
// check).
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Load returns the current count (0 on a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value: it can move both ways. The zero
// value is ready to use and a nil *Gauge is a valid no-op target.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the value by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Load returns the current value (0 on a nil gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of power-of-two histogram buckets. Bucket 0
// counts zero (and negative, clamped) observations; bucket i >= 1 counts
// observations v with 2^(i-1) <= v < 2^i; the last bucket absorbs
// everything at or above 2^(histBuckets-2) — about 39 hours when the
// observations are nanoseconds.
const histBuckets = 48

// Histogram counts observations in power-of-two buckets: recording is one
// bits.Len64, one atomic bucket add, and one atomic sum add — no
// allocation, no lock. The zero value is ready to use, and a nil
// *Histogram is a valid no-op target like the other metric types.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
}

// bucketOf maps an observation to its power-of-two bucket.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for b := range h.buckets {
		n += h.buckets[b].Load()
	}
	return n
}

// snapshot reads the bucket array plus the running sum.
func (h *Histogram) snapshot() (buckets [histBuckets]int64, sum int64) {
	for b := range h.buckets {
		buckets[b] = h.buckets[b].Load()
	}
	return buckets, h.sum.Load()
}
