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
// is off and almost nothing when it is on: every metric write is one
// atomic add with no allocation, every metric type treats a nil receiver
// as a no-op (so uninstrumented components skip a single pointer-nil
// branch and nothing else), and histograms whose writers contend are
// striped across cache-line-padded cells. The memoized-evaluation and
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

// histStripe is one writer lane of a histogram. The trailing pad rounds
// the struct to a multiple of the cache line size so adjacent stripes of a
// striped histogram never share a line — per-lane padding for the
// contended-writer case.
type histStripe struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
	_       [48]byte
}

// Histogram counts observations in power-of-two buckets: recording is one
// bits.Len64, one atomic bucket add, and one atomic sum add — no
// allocation, no lock. A histogram built by NewHistogramStripes spreads
// concurrent writers across cache-line-padded stripes keyed by a caller
// hint (a worker index), so hot multi-writer paths do not false-
// share one cell; snapshots fold the stripes back together. The zero
// value is NOT ready to use — construct with NewHistogram — but a nil
// *Histogram is a valid no-op target like the other metric types.
type Histogram struct {
	stripes []histStripe
	mask    uint32 // len(stripes) - 1; stripe counts are powers of two
}

// NewHistogram builds a single-stripe histogram, right for paths with one
// writer at a time (a flush leader, a single-threaded driver).
func NewHistogram() *Histogram {
	return NewHistogramStripes(1)
}

// NewHistogramStripes builds a histogram with n writer stripes (rounded up
// to a power of two, minimum 1). Writers that know their lane — a worker
// index — should call ObserveAt with it so contending
// writers land on distinct cache-line-padded stripes.
func NewHistogramStripes(n int) *Histogram {
	k := 1
	for k < n && k < 256 {
		k <<= 1
	}
	return &Histogram{stripes: make([]histStripe, k), mask: uint32(k - 1)}
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

// Observe records one observation on stripe 0.
func (h *Histogram) Observe(v int64) {
	h.ObserveAt(0, v)
}

// ObserveAt records one observation on the stripe selected by lane
// (reduced modulo the stripe count). Lanes only spread contention; every
// stripe feeds the same distribution.
func (h *Histogram) ObserveAt(lane int, v int64) {
	if h == nil {
		return
	}
	s := &h.stripes[uint32(lane)&h.mask]
	s.buckets[bucketOf(v)].Add(1)
	s.sum.Add(v)
}

// Count returns the total number of observations, summed across stripes.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.stripes {
		for b := range h.stripes[i].buckets {
			n += h.stripes[i].buckets[b].Load()
		}
	}
	return n
}

// snapshot folds the stripes into one bucket array plus the running sum.
func (h *Histogram) snapshot() (buckets [histBuckets]int64, sum int64) {
	for i := range h.stripes {
		s := &h.stripes[i]
		for b := range s.buckets {
			buckets[b] += s.buckets[b].Load()
		}
		sum += s.sum.Load()
	}
	return buckets, sum
}
