package dtree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/pipeline"
)

// TestEntropyTableIsExact checks every table cell against entropyCounts
// bit for bit, and entropy on both sides of the table bound.
func TestEntropyTableIsExact(t *testing.T) {
	entropyOnce.Do(fillEntropyTable)
	for s := 0; s < entropyTableSize; s++ {
		for f := 0; f < entropyTableSize; f++ {
			got, want := entropyTable[s][f], entropyCounts(float64(s), float64(f))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("table[%d][%d] = %v (%#x), entropyCounts = %v (%#x)",
					s, f, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	for s := 0; s < 2*entropyTableSize; s += 7 {
		for f := 0; f < 2*entropyTableSize; f += 5 {
			got, want := entropy(s, f), entropyCounts(float64(s), float64(f))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("entropy(%d, %d) = %v, entropyCounts = %v", s, f, got, want)
			}
		}
	}
}

// outOfDomain returns a value of parameter i outside its declared domain,
// drawn from a few fixed ones so that they repeat across examples. Each
// is interned on first use, which appends a code and, for ordinals, can
// shift the ranks of every code above it.
func outOfDomain(r *rand.Rand, s *pipeline.Space, i int) pipeline.Value {
	if s.At(i).Kind == pipeline.Ordinal {
		return pipeline.Ord([]float64{-1, 0.75, 2.25, 100}[r.Intn(4)])
	}
	return pipeline.Cat([]string{"a", "m", "zz"}[r.Intn(3)])
}

// randomVotingExample draws an example over s: about one in eight is
// inconclusive, and the weight is 0 or 1 (one vote) or, with margins, up
// to 9 votes. Ordinal values are NaN with probability 1/8 and every value
// is out of domain with probability 1/16.
func randomVotingExample(r *rand.Rand, s *pipeline.Space, margins bool) Example {
	in := s.RandomInstance(r)
	for i := 0; i < s.Len(); i++ {
		switch {
		case s.At(i).Kind == pipeline.Ordinal && r.Intn(8) == 0:
			in = in.With(i, pipeline.Ord(math.NaN()))
		case r.Intn(16) == 0:
			in = in.With(i, outOfDomain(r, s, i))
		}
	}
	ex := Example{Instance: in, Outcome: pipeline.Succeed, Weight: r.Intn(2)}
	switch r.Intn(8) {
	case 0:
		ex.Outcome = pipeline.OutcomeInconclusive
	case 1, 2, 3:
		ex.Outcome = pipeline.Fail
	}
	if margins {
		ex.Weight = r.Intn(10)
	}
	return ex
}

// TestGrowerMatchesBuild feeds a Grower random append batches of 1–8
// examples and, after every batch, compares its tree with naiveBuild and
// with the one-shot Build over the examples so far. The examples mix
// categorical and ordinal parameters, NaN and out-of-domain codes
// interned between builds, inconclusive examples, and unit weights or
// vote margins up to 9, which carry node counts past the entropy table.
func TestGrowerMatchesBuild(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for _, margins := range []bool{false, true} {
		maxCount := 0
		for trial := 0; trial < 10; trial++ {
			s := randomSplitSpace(t, r)
			g := NewGrower(s)
			var examples []Example
			for len(examples) < 120 {
				for k := 1 + r.Intn(8); k > 0; k-- {
					ex := randomVotingExample(r, s, margins)
					if err := g.Add(ex); err != nil {
						t.Fatal(err)
					}
					examples = append(examples, ex)
				}
				got := g.Build()
				name := fmt.Sprintf("margins %v, trial %d, %d examples", margins, trial, len(examples))
				if want := naiveBuild(s, examples); !sameTree(got, want) {
					t.Fatalf("%s: Grower and naive trees diverge\nGrower:\n%vnaive:\n%v", name, got, want)
				}
				if want := Build(s, examples); !sameTree(got, want) {
					t.Fatalf("%s: Grower and Build trees diverge\nGrower:\n%vBuild:\n%v", name, got, want)
				}
				maxCount = max(maxCount, got.NSucceed, got.NFail)
			}
		}
		if margins && maxCount < entropyTableSize {
			t.Fatalf("no node count reached the table bound %d (max %d)", entropyTableSize, maxCount)
		}
	}
}

// TestGrowerRefusesForeignInstance checks that Add refuses an example of
// another space, and the zero Instance, without adding anything.
func TestGrowerRefusesForeignInstance(t *testing.T) {
	s := testSpace(t)
	other := testSpace(t)
	g := NewGrower(s)
	for _, in := range []pipeline.Instance{allInstances(other)[0], {}} {
		if err := g.Add(Example{Instance: in, Outcome: pipeline.Fail}); err == nil {
			t.Fatalf("Add accepted %v", in)
		}
	}
	if err := g.Add(Example{Instance: allInstances(s)[0], Outcome: pipeline.Fail}); err != nil {
		t.Fatal(err)
	}
	if root := g.Build(); !root.IsLeaf() || root.NFail != 1 || root.NSucceed != 0 {
		t.Fatalf("tree over one failing example:\n%v", root)
	}
}

func countNodes(n *Node) int {
	if n.IsLeaf() {
		return 1
	}
	return 1 + countNodes(n.Yes) + countNodes(n.No)
}

// TestRegrowAllocatesOnlyNodes checks that a second Build over an
// unchanged Grower allocates one object per tree node and nothing else.
func TestRegrowAllocatesOnlyNodes(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	s := randomSplitSpace(t, r)
	g := NewGrower(s)
	for _, ex := range randomExamples(r, s, 120) {
		if err := g.Add(ex); err != nil {
			t.Fatal(err)
		}
	}
	nodes := countNodes(g.Build())
	if nodes < 3 {
		t.Fatalf("tree has %d nodes; the test needs a split", nodes)
	}
	if allocs := testing.AllocsPerRun(20, func() { g.Build() }); allocs != float64(nodes) {
		t.Fatalf("regrow allocated %v objects for a %d-node tree", allocs, nodes)
	}
}
