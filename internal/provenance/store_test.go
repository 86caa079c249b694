package provenance

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/predicate"
)

func ordDomain(vals ...float64) []pipeline.Value {
	out := make([]pipeline.Value, len(vals))
	for i, v := range vals {
		out[i] = pipeline.Ord(v)
	}
	return out
}

func catDomain(vals ...string) []pipeline.Value {
	out := make([]pipeline.Value, len(vals))
	for i, v := range vals {
		out[i] = pipeline.Cat(v)
	}
	return out
}

func testSpace(t *testing.T) *pipeline.Space {
	t.Helper()
	return pipeline.MustSpace(
		pipeline.Parameter{Name: "a", Kind: pipeline.Ordinal, Domain: ordDomain(1, 2, 3)},
		pipeline.Parameter{Name: "b", Kind: pipeline.Categorical, Domain: catDomain("x", "y", "z")},
	)
}

func TestStoreAddLookup(t *testing.T) {
	s := testSpace(t)
	st := NewStore(s)
	in := pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Cat("x"))
	if err := st.Add(in, pipeline.Fail, "seed"); err != nil {
		t.Fatal(err)
	}
	out, ok := st.Lookup(in)
	if !ok || out != pipeline.Fail {
		t.Fatalf("Lookup = %v, %v", out, ok)
	}
	if _, ok := st.Lookup(pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Cat("x"))); ok {
		t.Fatal("lookup of unrecorded instance must miss")
	}
	if err := st.Add(in, pipeline.Succeed, "dup"); err == nil {
		t.Fatal("duplicate instance must be rejected")
	}
	if err := st.Add(in, pipeline.OutcomeUnknown, "bad"); err == nil {
		t.Fatal("unknown outcome must be rejected")
	}
	other := testSpace(t)
	foreign := pipeline.MustInstance(other, pipeline.Ord(1), pipeline.Cat("x"))
	if err := st.Add(foreign, pipeline.Fail, "foreign"); err == nil {
		t.Fatal("foreign-space instance must be rejected")
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d", st.Len())
	}
}

func seedStore(t *testing.T, s *pipeline.Space) *Store {
	t.Helper()
	st := NewStore(s)
	add := func(a float64, b string, out pipeline.Outcome) {
		t.Helper()
		in := pipeline.MustInstance(s, pipeline.Ord(a), pipeline.Cat(b))
		if err := st.Add(in, out, "seed"); err != nil {
			t.Fatal(err)
		}
	}
	add(1, "x", pipeline.Fail)
	add(2, "y", pipeline.Succeed)
	add(3, "z", pipeline.Succeed)
	add(3, "x", pipeline.Succeed)
	return st
}

func TestStoreQueries(t *testing.T) {
	s := testSpace(t)
	st := seedStore(t, s)
	succ, fail := st.Outcomes()
	if succ != 3 || fail != 1 {
		t.Fatalf("Outcomes = %d, %d", succ, fail)
	}
	if got := len(st.Failing()); got != 1 {
		t.Fatalf("Failing = %d", got)
	}
	if got := len(st.Succeeding()); got != 3 {
		t.Fatalf("Succeeding = %d", got)
	}
	f, ok := st.FirstFailing()
	if !ok || f.Value(0) != pipeline.Ord(1) {
		t.Fatalf("FirstFailing = %v, %v", f, ok)
	}
	// Disjoint from (1,x): (2,y) and (3,z); (3,x) shares b=x.
	dis := st.DisjointSucceeding(f)
	if len(dis) != 2 {
		t.Fatalf("DisjointSucceeding = %v", dis)
	}
	md, ok := st.MostDifferentSucceeding(f)
	if !ok || md.DiffCount(f) != 2 {
		t.Fatalf("MostDifferentSucceeding = %v", md)
	}
}

// TestCrossSpaceQueriesDoNotPanic pins the cross-space guards: a ref
// instance from a different space — in particular one with FEWER
// parameters, which used to drive DiffCount past the end of the shorter
// code vector and panic — must make every heuristic query report
// not-found, matching DisjointSucceeding's long-standing behavior.
func TestCrossSpaceQueriesDoNotPanic(t *testing.T) {
	s := testSpace(t)
	st := seedStore(t, s)
	small := pipeline.MustSpace(
		pipeline.Parameter{Name: "only", Kind: pipeline.Ordinal, Domain: ordDomain(1, 2)},
	)
	ref := pipeline.MustInstance(small, pipeline.Ord(1))
	if got := st.DisjointSucceeding(ref); got != nil {
		t.Fatalf("DisjointSucceeding(foreign) = %v, want nil", got)
	}
	if in, ok := st.MostDifferentSucceeding(ref); ok {
		t.Fatalf("MostDifferentSucceeding(foreign) = %v, want not found", in)
	}
	if got := st.MutuallyDisjointSucceeding(ref, 3); got != nil {
		t.Fatalf("MutuallyDisjointSucceeding(foreign) = %v, want nil", got)
	}
	// Same space count, different identity: still foreign.
	twin := testSpace(t)
	refTwin := pipeline.MustInstance(twin, pipeline.Ord(1), pipeline.Cat("x"))
	if _, ok := st.MostDifferentSucceeding(refTwin); ok {
		t.Fatal("MostDifferentSucceeding must reject a twin-space ref")
	}
	if got := st.MutuallyDisjointSucceeding(refTwin, 2); got != nil {
		t.Fatalf("MutuallyDisjointSucceeding(twin) = %v, want nil", got)
	}
	// The trial ledger settles a foreign instance as unknown, so the
	// executor's commit path surfaces the space error.
	if out, done := st.TrialOutcome(refTwin); !done || out != pipeline.OutcomeUnknown {
		t.Fatalf("TrialOutcome(twin) = %v, %v; want unknown, settled", out, done)
	}
}

func TestMutuallyDisjointSucceeding(t *testing.T) {
	s := testSpace(t)
	st := seedStore(t, s)
	f, _ := st.FirstFailing()
	// (2,y) and (3,z) are mutually disjoint and disjoint from (1,x), and
	// they come first; padding adds the remaining succeeding instance.
	got := st.MutuallyDisjointSucceeding(f, 3)
	if len(got) != 3 {
		t.Fatalf("MutuallyDisjointSucceeding = %v", got)
	}
	disjoint := got[:2]
	for i := range disjoint {
		if !disjoint[i].DisjointFrom(f) {
			t.Fatalf("instance %v not disjoint from %v", disjoint[i], f)
		}
		for j := i + 1; j < len(disjoint); j++ {
			if !disjoint[i].DisjointFrom(disjoint[j]) {
				t.Fatalf("instances %v and %v not mutually disjoint", disjoint[i], disjoint[j])
			}
		}
	}
	if got[2].DisjointFrom(f) {
		t.Fatalf("padding instance %v is disjoint from %v; want the remaining, overlapping one", got[2], f)
	}
}

func TestAnySucceedingSatisfying(t *testing.T) {
	s := testSpace(t)
	st := seedStore(t, s)
	c := predicate.And(predicate.T("a", predicate.Eq, pipeline.Ord(3)))
	in, ok := st.AnySucceedingSatisfying(c)
	if !ok || in.Value(0) != pipeline.Ord(3) {
		t.Fatalf("AnySucceedingSatisfying = %v, %v", in, ok)
	}
	c2 := predicate.And(predicate.T("a", predicate.Eq, pipeline.Ord(1)))
	if _, ok := st.AnySucceedingSatisfying(c2); ok {
		t.Fatal("a=1 only failed; no succeeding superset exists")
	}
	succ, fail := st.CountSatisfying(predicate.And(predicate.T("b", predicate.Eq, pipeline.Cat("x"))))
	if succ != 1 || fail != 1 {
		t.Fatalf("CountSatisfying = %d, %d", succ, fail)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := testSpace(t)
	st := seedStore(t, s)
	var buf bytes.Buffer
	if err := st.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := testSpace(t)
	st2, err := ReadCSV(s2, &buf, "loaded")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != st.Len() {
		t.Fatalf("round trip length = %d, want %d", st2.Len(), st.Len())
	}
	a, b := st.Records(), st2.Records()
	for i := range a {
		if a[i].Outcome != b[i].Outcome || a[i].Instance.Key() != b[i].Instance.Key() {
			t.Fatalf("record %d mismatch: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCSVExpandsUniverse(t *testing.T) {
	s := testSpace(t)
	csvData := "a,b,outcome\n9,x,fail\n"
	st, err := ReadCSV(s, strings.NewReader(csvData), "t")
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d", st.Len())
	}
	if i, _ := s.Index("a"); s.DomainIndex(i, pipeline.Ord(9)) < 0 {
		t.Fatal("universe must be expanded with value 9")
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []struct {
		name, data string
	}{
		{"badHeader", "a,zz,outcome\n1,x,fail\n"},
		{"noOutcome", "a,b\n1,x\n"},
		{"missingParam", "a,outcome\n1,fail\n"},
		{"dupColumn", "a,a,b,outcome\n1,1,x,fail\n"},
		{"badOrdinal", "a,b,outcome\nfoo,x,fail\n"},
		{"badOutcome", "a,b,outcome\n1,x,meh\n"},
		{"dupInstance", "a,b,outcome\n1,x,fail\n1,x,fail\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadCSV(testSpace(t), strings.NewReader(c.data), "t"); err == nil {
				t.Fatalf("ReadCSV(%q) succeeded, want error", c.data)
			}
		})
	}
}
