package telemetry

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Load() != 0 {
		t.Fatal("nil counter loaded nonzero")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Load() != 0 {
		t.Fatal("nil gauge loaded nonzero")
	}
	var h *Histogram
	h.Observe(10)
	if h.Count() != 0 {
		t.Fatal("nil histogram counted")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry returned non-nil metric")
	}
	r.GaugeFunc("x", func() int64 { return 1 })
	s := r.Snapshot()
	if s.Counters == nil || s.Gauges == nil || s.Histograms == nil {
		t.Fatal("nil registry snapshot has nil maps")
	}
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestNilPathAllocFree(t *testing.T) {
	var c *Counter
	var h *Histogram
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		h.Observe(42)
	}); n != 0 {
		t.Fatalf("nil metric ops allocated %v/op", n)
	}
	r := NewRegistry()
	rc := r.Counter("c")
	rh := r.Histogram("h")
	if n := testing.AllocsPerRun(100, func() {
		rc.Inc()
		rh.Observe(42)
	}); n != 0 {
		t.Fatalf("live metric ops allocated %v/op", n)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{math.MaxInt64, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHistogramSnapshotConsistency(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for round := 0; round < 4; round++ {
		for i := int64(1); i <= 100; i++ {
			h.Observe(i)
		}
	}
	s := r.Snapshot().Histograms["lat"]
	if s.Count != 400 {
		t.Fatalf("count = %d, want 400", s.Count)
	}
	var bucketTotal int64
	for _, b := range s.Buckets {
		bucketTotal += b.N
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
	if want := int64(4 * 100 * 101 / 2); s.Sum != want {
		t.Fatalf("sum = %d, want %d", s.Sum, want)
	}
	// p50 of 1..100 is 50, so the bound is the enclosing power of two.
	if q := s.Quantile(0.5); q != 64 {
		t.Fatalf("p50 bound = %d, want 64", q)
	}
	if q := s.Quantile(1); q != 128 {
		t.Fatalf("p100 bound = %d, want 128", q)
	}
	if m := s.Mean(); m != (100*101/2)/100 {
		t.Fatalf("mean = %d", m)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same-name counters differ")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("same-name gauges differ")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("same-name histograms differ")
	}
	r.GaugeFunc("fn", func() int64 { return 42 })
	if got := r.Snapshot().Gauges["fn"]; got != 42 {
		t.Fatalf("gauge func snapshot = %d, want 42", got)
	}
}

// TestSnapshotUnderConcurrency is the -race stress from the issue:
// concurrent counter/gauge/histogram writers against Snapshot readers,
// asserting counters are monotone across successive snapshots and every
// histogram snapshot is internally consistent (bucket totals equal the
// reported count).
func TestSnapshotUnderConcurrency(t *testing.T) {
	r := NewRegistry()
	const writers = 8
	const perWriter = 5000
	stop := make(chan struct{})
	var writerWG, readerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			c := r.Counter("trials")
			g := r.Gauge("queue")
			h := r.Histogram("latency_ns")
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i%1000) + 1)
				g.Add(-1)
			}
		}()
	}
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		var lastTrials, lastHist int64
		for {
			s := r.Snapshot()
			if c := s.Counters["trials"]; c < lastTrials {
				t.Errorf("counter went backwards: %d < %d", c, lastTrials)
				return
			} else {
				lastTrials = c
			}
			h := s.Histograms["latency_ns"]
			var total int64
			for _, b := range h.Buckets {
				total += b.N
			}
			if total != h.Count {
				t.Errorf("histogram bucket total %d != count %d", total, h.Count)
				return
			}
			if h.Count < lastHist {
				t.Errorf("histogram count went backwards: %d < %d", h.Count, lastHist)
				return
			}
			lastHist = h.Count
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	s := r.Snapshot()
	if got := s.Counters["trials"]; got != writers*perWriter {
		t.Fatalf("final trials = %d, want %d", got, writers*perWriter)
	}
	if got := s.Gauges["queue"]; got != 0 {
		t.Fatalf("final queue gauge = %d, want 0", got)
	}
	h := s.Histograms["latency_ns"]
	if h.Count != writers*perWriter {
		t.Fatalf("final histogram count = %d, want %d", h.Count, writers*perWriter)
	}
}

func TestServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("oracle_trials").Add(7)
	r.Gauge("workers").Set(4)
	r.Histogram("oracle_latency_ns").Observe(1500)
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	var s Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, rec.Body.String())
	}
	if s.Counters["oracle_trials"] != 7 || s.Gauges["workers"] != 4 {
		t.Fatalf("round-trip mismatch: %+v", s)
	}
	if h := s.Histograms["oracle_latency_ns"]; h.Count != 1 || h.Sum != 1500 {
		t.Fatalf("histogram round-trip mismatch: %+v", h)
	}
}

func TestTable(t *testing.T) {
	r := NewRegistry()
	r.Counter("memo_hits").Add(10)
	r.Gauge("budget_remaining").Set(90)
	r.Histogram("oracle_latency_ns").Observe(2_000_000)
	out := r.Snapshot().Table()
	for _, want := range []string{"memo_hits", "budget_remaining", "oracle_latency_ns", "2ms"} {
		if !contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	empty := NewRegistry().Snapshot().Table()
	if empty != "no telemetry recorded\n" {
		t.Errorf("empty table = %q", empty)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
