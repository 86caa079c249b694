package provenance

import (
	"bytes"
	"maps"
	"reflect"
	"slices"
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
	// A read lock a query left held makes TryLock fail at once; a later
	// Lock would hang until the test timeout.
	if !st.mu.TryLock() {
		t.Fatal("a query left the store lock held")
	}
	st.mu.Unlock()
}

// TestCrossSpaceQueriesDoNotPanic pins the space guard of every exported
// Store method that takes a pipeline.Instance, by what it answers. Codes
// are interned per space, so an instance of another space means nothing
// to the store's indexes. Two foreign instances probe each method: a
// twin-space instance whose codes (and so hash) equal those of a recorded
// home instance that also holds votes, and an instance of a smaller space,
// which used to drive DiffCount past the end of the shorter code vector
// and panic. Each foreign call must answer as for an unknown instance,
// fail when it writes, and leave the home record and its votes unchanged.
func TestCrossSpaceQueriesDoNotPanic(t *testing.T) {
	s := testSpace(t)
	st := NewStore(s)
	st.SetTrialPolicy(trialPolicy())
	home := pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Cat("x"))
	homeVotes := []TrialVote{{pipeline.Fail, "t"}, {pipeline.Succeed, "t"}, {pipeline.Fail, "t"}}
	for _, v := range homeVotes {
		if _, err := st.AddTrial(home, v.Outcome, v.Source); err != nil {
			t.Fatal(err)
		}
	}
	add := func(in pipeline.Instance, out pipeline.Outcome) {
		t.Helper()
		if err := st.Add(in, out, "seed"); err != nil {
			t.Fatal(err)
		}
	}
	add(home, pipeline.Fail)
	add(pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Cat("y")), pipeline.Succeed)
	add(pipeline.MustInstance(s, pipeline.Ord(3), pipeline.Cat("z")), pipeline.Succeed)
	add(pipeline.MustInstance(s, pipeline.Ord(3), pipeline.Cat("x")), pipeline.Succeed)

	twin := pipeline.MustInstance(testSpace(t), pipeline.Ord(1), pipeline.Cat("x"))
	if twin.Hash() != home.Hash() || twin.Code(0) != home.Code(0) || twin.Code(1) != home.Code(1) {
		t.Fatal("the twin-space instance must share the home instance's codes and hash")
	}
	small := pipeline.MustInstance(pipeline.MustSpace(
		pipeline.Parameter{Name: "only", Kind: pipeline.Ordinal, Domain: ordDomain(1, 2)},
	), pipeline.Ord(1))

	mustFail := func(t *testing.T, err error) {
		t.Helper()
		if err == nil {
			t.Fatal("a foreign instance must be rejected")
		}
	}
	methods := map[string]func(t *testing.T, in pipeline.Instance){
		"Add": func(t *testing.T, in pipeline.Instance) {
			mustFail(t, st.Add(in, pipeline.Fail, "foreign"))
		},
		"Lookup": func(t *testing.T, in pipeline.Instance) {
			if out, ok := st.Lookup(in); ok {
				t.Fatalf("Lookup = %v, hit; want a miss", out)
			}
		},
		"MutuallyDisjointSucceeding": func(t *testing.T, in pipeline.Instance) {
			if got := st.MutuallyDisjointSucceeding(in, 3); got != nil {
				t.Fatalf("MutuallyDisjointSucceeding = %v, want nil", got)
			}
		},
		// The trial ledger settles a foreign instance as unknown, so the
		// executor's commit path surfaces the space error.
		"TrialOutcome": func(t *testing.T, in pipeline.Instance) {
			if out, done := st.TrialOutcome(in); !done || out != pipeline.OutcomeUnknown {
				t.Fatalf("TrialOutcome = %v, %v; want unknown, settled", out, done)
			}
		},
		"AddTrial": func(t *testing.T, in pipeline.Instance) {
			_, err := st.AddTrial(in, pipeline.Fail, "foreign")
			mustFail(t, err)
		},
		// Trial 0 would open a ledger, and trial 3 would extend the home
		// instance's: both must fail.
		"LoadTrialVote": func(t *testing.T, in pipeline.Instance) {
			mustFail(t, st.LoadTrialVote(in, 0, pipeline.Fail, "foreign"))
			mustFail(t, st.LoadTrialVote(in, len(homeVotes), pipeline.Fail, "foreign"))
		},
		"TrialVotes": func(t *testing.T, in pipeline.Instance) {
			if got := st.TrialVotes(in); got != nil {
				t.Fatalf("TrialVotes = %v, want nil", got)
			}
		},
		"TrialCount": func(t *testing.T, in pipeline.Instance) {
			if got := st.TrialCount(in); got != 0 {
				t.Fatalf("TrialCount = %d, want 0", got)
			}
		},
		"TrialMargin": func(t *testing.T, in pipeline.Instance) {
			if got := st.TrialMargin(in); got != 0 {
				t.Fatalf("TrialMargin = %d, want 0", got)
			}
		},
	}

	// A new exported method that takes an instance needs a row above.
	storeType := reflect.TypeOf(st)
	instType := reflect.TypeOf(pipeline.Instance{})
	for i := 0; i < storeType.NumMethod(); i++ {
		m := storeType.Method(i)
		for j := 1; j < m.Type.NumIn(); j++ {
			if m.Type.In(j) == instType && methods[m.Name] == nil {
				t.Errorf("Store.%s takes a pipeline.Instance but has no cross-space row", m.Name)
			}
		}
	}

	for _, foreign := range []struct {
		name string
		in   pipeline.Instance
	}{{"twin", twin}, {"small", small}} {
		for _, name := range slices.Sorted(maps.Keys(methods)) {
			t.Run(foreign.name+"/"+name, func(t *testing.T) {
				methods[name](t, foreign.in)
				if out, ok := st.Lookup(home); !ok || out != pipeline.Fail {
					t.Fatalf("home Lookup = %v, %v after the foreign call", out, ok)
				}
				if got := st.TrialVotes(home); !slices.Equal(got, homeVotes) {
					t.Fatalf("home votes = %v after the foreign call, want %v", got, homeVotes)
				}
				if st.Len() != 4 {
					t.Fatalf("Len = %d after the foreign call, want 4", st.Len())
				}
			})
		}
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

// TestCSVLeavesNaNOutOfUniverse checks that a NaN cell loads as an
// out-of-domain value: NaN joins no domain, so the universe is not
// expanded by it, while a new categorical cell still expands it, and the
// records survive a write and read.
func TestCSVLeavesNaNOutOfUniverse(t *testing.T) {
	s := testSpace(t)
	st, err := ReadCSV(s, strings.NewReader("a,b,outcome\nNaN,x,fail\n2,w,succeed\n"), "t")
	if err != nil {
		t.Fatal(err)
	}
	if na, nb := len(s.Domain("a")), len(s.Domain("b")); st.Len() != 2 || na != 3 || nb != 4 {
		t.Fatalf("Len = %d, domain sizes %d and %d, want 2, 3 and 4", st.Len(), na, nb)
	}
	var buf bytes.Buffer
	if err := st.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	st2, err := ReadCSV(testSpace(t), &buf, "loaded")
	if err != nil || st2.Len() != 2 {
		t.Fatalf("reloaded %d records, %v", st2.Len(), err)
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
