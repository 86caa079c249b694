package dtree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/predicate"
)

// bestSplit runs the counting split search of a Grower over a whole
// example list, the entry point of the differential split tests.
func bestSplit(s *pipeline.Space, examples []Example) (predicate.Triple, bool) {
	g := newGrower(s, len(examples))
	for _, ex := range examples {
		if err := g.Add(ex); err != nil {
			panic(err)
		}
	}
	g.prepare()
	totS, totF := 0, 0
	for _, v := range g.votes {
		totS += v.s
		totF += v.f
	}
	sp, ok := g.bestSplit(0, len(g.idx), totS, totF)
	return sp.t, ok
}

// naiveBestSplit is the pre-counting reference implementation: it
// materializes the yes/no partition of every candidate triple and computes
// the gain from the partition. The counting-based bestSplit must pick the
// same split with the same gain and the same canonical tie-break. Examples
// weigh their votes; examples without a vote take no part.
func naiveBestSplit(s *pipeline.Space, examples []Example) (predicate.Triple, bool) {
	examples = voting(examples)
	total := float64(naiveMass(examples))
	baseH := naiveEntropy(examples)
	best := predicate.Triple{}
	bestGain := -1.0
	consider := func(t predicate.Triple) {
		var yes, no []Example
		for _, ex := range examples {
			if t.Satisfied(ex.Instance) {
				yes = append(yes, ex)
			} else {
				no = append(no, ex)
			}
		}
		if len(yes) == 0 || len(no) == 0 {
			return
		}
		gain := baseH -
			float64(naiveMass(yes))/total*naiveEntropy(yes) -
			float64(naiveMass(no))/total*naiveEntropy(no)
		if gain > bestGain+1e-12 ||
			(math.Abs(gain-bestGain) <= 1e-12 && bestGain >= 0 && t.Less(best)) {
			best, bestGain = t, gain
		}
	}
	for i := 0; i < s.Len(); i++ {
		p := s.At(i)
		values := naiveObservedValues(examples, i)
		switch p.Kind {
		case pipeline.Categorical:
			for _, v := range values {
				consider(predicate.T(p.Name, predicate.Eq, v))
			}
		case pipeline.Ordinal:
			for k := 0; k < len(values)-1; k++ {
				consider(predicate.T(p.Name, predicate.Le, values[k]))
			}
		}
	}
	if bestGain < 0 {
		return predicate.Triple{}, false
	}
	return best, true
}

func naiveObservedValues(examples []Example, i int) []pipeline.Value {
	seen := make(map[pipeline.Value]bool)
	var out []pipeline.Value
	for _, ex := range examples {
		v := ex.Instance.Value(i)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(a, b int) bool { return nanLastLess(out[a], out[b]) })
	return out
}

// nanLastLess is Value.Less with NaN ordered after every number: the value
// order of the counting search. Less alone orders NaN neither before nor
// after anything, so sorting by it can leave numbers out of order.
func nanLastLess(a, b pipeline.Value) bool {
	if a.Kind() == pipeline.Ordinal && b.Kind() == pipeline.Ordinal {
		if an, bn := math.IsNaN(a.Num()), math.IsNaN(b.Num()); an || bn {
			return !an && bn
		}
	}
	return a.Less(b)
}

// voting returns the examples that carry a vote: those labelled Succeed
// or Fail.
func voting(examples []Example) []Example {
	var out []Example
	for _, ex := range examples {
		if ex.Outcome == pipeline.Succeed || ex.Outcome == pipeline.Fail {
			out = append(out, ex)
		}
	}
	return out
}

// naiveMass sums the examples' weights.
func naiveMass(examples []Example) int {
	m := 0
	for _, ex := range examples {
		m += ex.weight()
	}
	return m
}

// naiveEntropy is the entropy of the weighted labels of voting examples.
func naiveEntropy(examples []Example) float64 {
	var s, f float64
	for _, ex := range examples {
		if ex.Outcome == pipeline.Succeed {
			s += float64(ex.weight())
		} else {
			f += float64(ex.weight())
		}
	}
	return entropyCounts(s, f)
}

// naiveBuild grows a tree using the naive split search; tree-level
// differential tests compare it with Build.
func naiveBuild(s *pipeline.Space, examples []Example) *Node {
	examples = voting(examples)
	n := &Node{}
	for _, ex := range examples {
		switch ex.Outcome {
		case pipeline.Succeed:
			n.NSucceed += ex.weight()
		case pipeline.Fail:
			n.NFail += ex.weight()
		}
	}
	if n.NSucceed == 0 || n.NFail == 0 || len(examples) < 2 {
		return n
	}
	split, ok := naiveBestSplit(s, examples)
	if !ok {
		return n
	}
	var yes, no []Example
	for _, ex := range examples {
		if split.Satisfied(ex.Instance) {
			yes = append(yes, ex)
		} else {
			no = append(no, ex)
		}
	}
	n.Split = split
	n.Yes = naiveBuild(s, yes)
	n.No = naiveBuild(s, no)
	return n
}

func sameTree(a, b *Node) bool {
	if a.NSucceed != b.NSucceed || a.NFail != b.NFail {
		return false
	}
	if a.IsLeaf() != b.IsLeaf() {
		return false
	}
	if a.IsLeaf() {
		return true
	}
	return a.Split == b.Split && sameTree(a.Yes, b.Yes) && sameTree(a.No, b.No)
}

func randomSplitSpace(t *testing.T, r *rand.Rand) *pipeline.Space {
	t.Helper()
	n := 2 + r.Intn(4)
	params := make([]pipeline.Parameter, n)
	for i := range params {
		name := string(rune('a' + i))
		if r.Intn(2) == 0 {
			dom := make([]pipeline.Value, 2+r.Intn(5))
			for j := range dom {
				dom[j] = pipeline.Ord(float64(j) * 1.5)
			}
			params[i] = pipeline.Parameter{Name: name, Kind: pipeline.Ordinal, Domain: dom}
		} else {
			labels := []string{"p", "q", "r", "s", "t"}
			dom := make([]pipeline.Value, 2+r.Intn(3))
			for j := range dom {
				dom[j] = pipeline.Cat(labels[j])
			}
			params[i] = pipeline.Parameter{Name: name, Kind: pipeline.Categorical, Domain: dom}
		}
	}
	return pipeline.MustSpace(params...)
}

func randomExamples(r *rand.Rand, s *pipeline.Space, n int) []Example {
	out := make([]Example, n)
	for i := range out {
		in := s.RandomInstance(r)
		outc := pipeline.Succeed
		if r.Intn(2) == 0 {
			outc = pipeline.Fail
		}
		out[i] = Example{Instance: in, Outcome: outc}
	}
	return out
}

// sprinkleNaN replaces each ordinal value of the examples by NaN with
// probability 1/4. NaN is interned after the domain, as it is when
// out-of-domain provenance brings it in.
func sprinkleNaN(r *rand.Rand, s *pipeline.Space, examples []Example) {
	for k := range examples {
		for i := 0; i < s.Len(); i++ {
			if s.At(i).Kind == pipeline.Ordinal && r.Intn(4) == 0 {
				examples[k].Instance = examples[k].Instance.With(i, pipeline.Ord(math.NaN()))
			}
		}
	}
}

// nanMidwayExamples is a case a comparator sort gets wrong: with x = 3 F,
// 3 F, NaN S, 1 S, 2 F seen in that order, NaN sits between 3 and 1 and an
// insertion sort by Value.Less never moves 3 past it, so the prefix sums
// miscount every threshold and "x <= 3" wins. On true gain "x <= 1" and
// "x <= 3" tie and the canonical tie-break picks "x <= 1".
func nanMidwayExamples() (*pipeline.Space, []Example) {
	s := pipeline.MustSpace(pipeline.Parameter{Name: "x", Kind: pipeline.Ordinal, Domain: ordDomain(1, 2, 3)})
	var examples []Example
	for _, e := range []struct {
		x   float64
		out pipeline.Outcome
	}{{3, pipeline.Fail}, {3, pipeline.Fail}, {math.NaN(), pipeline.Succeed}, {1, pipeline.Succeed}, {2, pipeline.Fail}} {
		examples = append(examples, Example{Instance: pipeline.MustInstance(s, pipeline.Ord(e.x)), Outcome: e.out})
	}
	return s, examples
}

// TestCountingSplitMatchesNaive differentially checks bestSplit: on
// nanMidwayExamples and across randomized example sets, with and without
// NaN values, the counting-based search and the naive per-candidate
// partition must agree on the split (including ok=false cases and
// canonical tie-breaks).
func TestCountingSplitMatchesNaive(t *testing.T) {
	check := func(name string, s *pipeline.Space, examples []Example) {
		t.Helper()
		gotT, gotOK := bestSplit(s, examples)
		wantT, wantOK := naiveBestSplit(s, examples)
		if gotOK != wantOK || gotT != wantT {
			t.Fatalf("%s: bestSplit = (%v, %v), naive = (%v, %v)\nspace: %v, %d examples",
				name, gotT, gotOK, wantT, wantOK, s, len(examples))
		}
	}
	s, examples := nanMidwayExamples()
	check("NaN seen midway", s, examples)
	r := rand.New(rand.NewSource(99))
	for _, nan := range []bool{false, true} {
		for trial := 0; trial < 300; trial++ {
			s := randomSplitSpace(t, r)
			examples := randomExamples(r, s, 2+r.Intn(60))
			if nan {
				sprinkleNaN(r, s, examples)
			}
			check(fmt.Sprintf("trial %d (NaN %v)", trial, nan), s, examples)
		}
	}
}

// TestCountingSplitMatchesNaiveDuplicates stresses tie-breaking with many
// duplicated examples (duplicate instances concentrate counts and produce
// equal-gain candidates).
func TestCountingSplitMatchesNaiveDuplicates(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		s := randomSplitSpace(t, r)
		base := randomExamples(r, s, 3)
		var examples []Example
		for i := 0; i < 20; i++ {
			examples = append(examples, base[r.Intn(len(base))])
		}
		gotT, gotOK := bestSplit(s, examples)
		wantT, wantOK := naiveBestSplit(s, examples)
		if gotOK != wantOK || gotT != wantT {
			t.Fatalf("trial %d: bestSplit = (%v, %v), naive = (%v, %v)", trial, gotT, gotOK, wantT, wantOK)
		}
	}
}

// TestBestSplitBreaksTiesByTriple checks the tie-break when candidates
// arrive out of triple order: parameters declared in reverse name order
// carry identical columns, so each of z's candidates ties one of a's and
// the search must return the least triple, on a, not the first it met.
func TestBestSplitBreaksTiesByTriple(t *testing.T) {
	for _, kind := range []pipeline.Kind{pipeline.Categorical, pipeline.Ordinal} {
		dom := []pipeline.Value{pipeline.Cat("x"), pipeline.Cat("y")}
		want := predicate.T("a", predicate.Eq, pipeline.Cat("x"))
		if kind == pipeline.Ordinal {
			dom = []pipeline.Value{pipeline.Ord(1), pipeline.Ord(2)}
			want = predicate.T("a", predicate.Le, pipeline.Ord(1))
		}
		s := pipeline.MustSpace(
			pipeline.Parameter{Name: "z", Kind: kind, Domain: dom},
			pipeline.Parameter{Name: "a", Kind: kind, Domain: dom},
		)
		var examples []Example
		for k, out := range []pipeline.Outcome{pipeline.Fail, pipeline.Fail, pipeline.Succeed} {
			v := dom[min(k, 1)]
			examples = append(examples, Example{Instance: pipeline.MustInstance(s, v, v), Outcome: out})
		}
		got, ok := bestSplit(s, examples)
		if !ok || got != want {
			t.Fatalf("%v: bestSplit = (%v, %v), want %v", kind, got, ok, want)
		}
		if naive, _ := naiveBestSplit(s, examples); naive != want {
			t.Fatalf("%v: naive bestSplit = %v, want %v", kind, naive, want)
		}
	}
}

// TestBuildTerminatesOnNaN regression-tests the counting split search
// against NaN example values (producible via out-of-domain instances or
// CSV-loaded provenance): NaN never satisfies a "<=" and must never be a
// threshold, so selected splits always separate their examples and Build
// terminates.
func TestBuildTerminatesOnNaN(t *testing.T) {
	s := pipeline.MustSpace(
		pipeline.Parameter{Name: "x", Kind: pipeline.Ordinal, Domain: []pipeline.Value{pipeline.Ord(1), pipeline.Ord(2)}},
	)
	examples := []Example{
		{Instance: pipeline.MustInstance(s, pipeline.Ord(math.NaN())), Outcome: pipeline.Fail},
		{Instance: pipeline.MustInstance(s, pipeline.Ord(1)), Outcome: pipeline.Succeed},
		{Instance: pipeline.MustInstance(s, pipeline.Ord(2)), Outcome: pipeline.Succeed},
	}
	done := make(chan *Node, 1)
	go func() { done <- Build(s, examples) }()
	select {
	case tree := <-done:
		if tree.NFail != 1 || tree.NSucceed != 2 {
			t.Fatalf("root counts = %d succeed, %d fail", tree.NSucceed, tree.NFail)
		}
		// The only viable splits are finite thresholds; the NaN example
		// must sit on a no-branch, and the failing region must still be
		// discoverable as a pure-fail leaf.
		if got := len(tree.Suspects()); got != 1 {
			t.Fatalf("suspects = %d, want 1\n%v", got, tree)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Build did not terminate on NaN example values")
	}
}

// TestBuildMatchesNaiveBuild compares whole trees: identical splits at
// every node, identical leaf statistics.
func TestBuildMatchesNaiveBuild(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, nan := range []bool{false, true} {
		for trial := 0; trial < 60; trial++ {
			s := randomSplitSpace(t, r)
			examples := randomExamples(r, s, 5+r.Intn(80))
			if nan {
				sprinkleNaN(r, s, examples)
			}
			got := Build(s, examples)
			want := naiveBuild(s, examples)
			if !sameTree(got, want) {
				t.Fatalf("trial %d (NaN %v): trees diverge\ncounting:\n%vnaive:\n%v", trial, nan, got, want)
			}
		}
	}
}
