package provenance

import (
	"testing"

	"repro/internal/pipeline"
	"repro/internal/telemetry"
)

func metricsTestSpace(t *testing.T) *pipeline.Space {
	t.Helper()
	return pipeline.MustSpace(
		pipeline.Parameter{Name: "a", Kind: pipeline.Ordinal, Domain: []pipeline.Value{
			pipeline.Ord(1), pipeline.Ord(2), pipeline.Ord(3), pipeline.Ord(4),
			pipeline.Ord(5), pipeline.Ord(6), pipeline.Ord(7), pipeline.Ord(8),
		}},
		pipeline.Parameter{Name: "b", Kind: pipeline.Ordinal, Domain: []pipeline.Value{
			pipeline.Ord(1), pipeline.Ord(2), pipeline.Ord(3), pipeline.Ord(4),
		}},
	)
}

func TestStoreMetricsGauges(t *testing.T) {
	s := metricsTestSpace(t)
	st := NewStore(s)
	reg := telemetry.NewRegistry()
	st.SetMetrics(NewMetrics(reg))

	n := 0
	for _, av := range s.Domain("a") {
		for _, bv := range s.Domain("b") {
			out := pipeline.Succeed
			if n%3 == 0 {
				out = pipeline.Fail
			}
			if err := st.Add(pipeline.MustInstance(s, av, bv), out, "test"); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	// The record gauge reads the live log length.
	if got := reg.Snapshot().Gauges["provenance_records"]; got != int64(st.Len()) {
		t.Errorf("record gauge = %d, want %d", got, st.Len())
	}
	if err := st.Add(pipeline.MustInstance(s, pipeline.Ord(100), pipeline.Ord(1)), pipeline.Succeed, "test"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Gauges["provenance_records"]; got != int64(n+1) {
		t.Errorf("record gauge = %d after one more Add, want %d", got, n+1)
	}

}

func TestSetMetricsNilSafe(t *testing.T) {
	s := metricsTestSpace(t)
	st := NewStore(s)
	st.SetMetrics(nil)
	if NewMetrics(nil) != nil {
		t.Fatal("NewMetrics(nil) should return nil")
	}
	in := pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Ord(1))
	if err := st.Add(in, pipeline.Fail, "test"); err != nil {
		t.Fatal(err)
	}
	if succ, fail := st.Outcomes(); succ != 0 || fail != 1 {
		t.Fatalf("Outcomes over uninstrumented store = (%d,%d)", succ, fail)
	}
}
