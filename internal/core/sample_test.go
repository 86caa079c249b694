package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/predicate"
	"repro/internal/synth"
)

// sampleTestsByValue draws verification tests as sampleTests did before
// tests were drawn as codes: from each parameter's allowed domain values,
// built with NewInstance. The sampler differential holds sampleTests to
// its output and its random draws.
func sampleTestsByValue(s *pipeline.Space, region predicate.Region, opts DDTOptions) []pipeline.Instance {
	r := opts.Rand
	allowed := make([][]pipeline.Value, s.Len())
	for i := 0; i < s.Len(); i++ {
		allowed[i] = region.AllowedValues(s.At(i).Name)
		if len(allowed[i]) == 0 {
			return nil
		}
	}
	max := opts.MaxSuspectTests
	var tests []pipeline.Instance
	if size, _ := region.Count(); size <= uint64(max) {
		idx := make([]int, s.Len())
		vals := make([]pipeline.Value, s.Len())
		for {
			for i := range idx {
				vals[i] = allowed[i][idx[i]]
			}
			if in, err := pipeline.NewInstance(s, vals); err == nil {
				tests = append(tests, in)
			}
			k := len(idx) - 1
			for ; k >= 0; k-- {
				idx[k]++
				if idx[k] < len(allowed[k]) {
					break
				}
				idx[k] = 0
			}
			if k < 0 {
				return tests
			}
		}
	}
	seen := pipeline.NewInstanceMap[struct{}](max)
	vals := make([]pipeline.Value, s.Len())
	for attempts := 0; len(tests) < max && attempts < max*10; attempts++ {
		for i := range vals {
			vals[i] = allowed[i][r.Intn(len(allowed[i]))]
		}
		in, err := pipeline.NewInstance(s, vals)
		if err != nil {
			continue
		}
		if seen.Put(in, struct{}{}) {
			tests = append(tests, in)
		}
	}
	return tests
}

// randomSampleSpace builds a space of 1–4 parameters with domains of 1–6
// values, or one time in four of 60–200 values, so that region rows span
// several words. Depending on variant, it then interns an out-of-domain
// value of every parameter (variant 1), or also adds that value and a
// fresh one to the middle of each domain (variant 2), so that domain
// indices no longer equal codes.
func randomSampleSpace(r *rand.Rand, variant int) *pipeline.Space {
	params := make([]pipeline.Parameter, 1+r.Intn(4))
	for i := range params {
		name := fmt.Sprintf("p%d", i)
		d := 1 + r.Intn(6)
		if r.Intn(4) == 0 {
			d = 60 + r.Intn(141)
		}
		dom := make([]pipeline.Value, d)
		if r.Intn(2) == 0 {
			for j := range dom {
				dom[j] = pipeline.Ord(float64(2 * j))
			}
			params[i] = pipeline.Parameter{Name: name, Kind: pipeline.Ordinal, Domain: dom}
		} else {
			for j := range dom {
				dom[j] = pipeline.Cat(string(rune('b' + 2*j)))
			}
			params[i] = pipeline.Parameter{Name: name, Kind: pipeline.Categorical, Domain: dom}
		}
	}
	s := pipeline.MustSpace(params...)
	if variant == 0 {
		return s
	}
	for i, p := range params {
		ood, fresh := pipeline.Ord(1), pipeline.Ord(3)
		if p.Kind == pipeline.Categorical {
			ood, fresh = pipeline.Cat("c"), pipeline.Cat("e")
		}
		s.Intern(i, ood)
		if variant == 2 {
			for _, v := range []pipeline.Value{fresh, ood} {
				if err := s.AddToDomain(p.Name, v); err != nil {
					panic(err)
				}
			}
		}
	}
	return s
}

// randomSampleRegion returns the region of a conjunction of 0–3 random
// triples over s.
func randomSampleRegion(t *testing.T, r *rand.Rand, s *pipeline.Space) predicate.Region {
	t.Helper()
	var c predicate.Conjunction
	for k := r.Intn(4); k > 0; k-- {
		i := r.Intn(s.Len())
		p := s.At(i)
		cmps := []predicate.Comparator{predicate.Eq, predicate.Neq}
		if p.Kind == pipeline.Ordinal {
			cmps = append(cmps, predicate.Le, predicate.Gt)
		}
		c = append(c, predicate.T(p.Name, cmps[r.Intn(len(cmps))], p.Domain[r.Intn(len(p.Domain))]))
	}
	region, err := predicate.RegionOf(s, c)
	if err != nil {
		t.Fatal(err)
	}
	return region
}

// TestSampleTestsMatchValueDraw is the sampler differential: for random
// regions, sampleTests returns the instances sampleTestsByValue returns,
// in the same order, from the same seed, and leaves the random stream
// where it does. Spaces include ones with interned out-of-domain values,
// ones expanded by AddToDomain and ones with domains of over 64 values,
// and regions cover both the exhaustive and the sampled branch.
func TestSampleTestsMatchValueDraw(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	branches := map[bool]int{}
	wide := 0
	for trial := 0; trial < 600; trial++ {
		s := randomSampleSpace(r, trial%3)
		region := randomSampleRegion(t, r, s)
		max := 1 + r.Intn(16)
		seed := r.Int63()
		codeRand, valueRand := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		got := sampleTests(s, region, DDTOptions{Rand: codeRand, MaxSuspectTests: max})
		want := sampleTestsByValue(s, region, DDTOptions{Rand: valueRand, MaxSuspectTests: max})
		name := fmt.Sprintf("trial %d (%v, max %d)", trial, s, max)
		if len(got) != len(want) {
			t.Fatalf("%s: %d tests, value draw %d", name, len(got), len(want))
		}
		for k := range got {
			if !got[k].Equal(want[k]) || got[k].Key() != want[k].Key() {
				t.Fatalf("%s: test %d is %v, value draw %v", name, k, got[k], want[k])
			}
			for i := 0; i < s.Len(); i++ {
				if got[k].Value(i) != want[k].Value(i) {
					t.Fatalf("%s: test %d parameter %d is %v, value draw %v", name, k, i, got[k].Value(i), want[k].Value(i))
				}
			}
		}
		if a, b := codeRand.Int63(), valueRand.Int63(); a != b {
			t.Fatalf("%s: random streams diverge after sampling", name)
		}
		if size, _ := region.Count(); !region.Empty() {
			branches[size <= uint64(max)]++
		}
		for i := 0; i < s.Len(); i++ {
			if len(s.At(i).Domain) > 64 {
				wide++
				break
			}
		}
	}
	if branches[true] < 50 || branches[false] < 50 || wide < 100 {
		t.Fatalf("branches covered: exhaustive %d, sampled %d; spaces with a domain of over 64 values %d",
			branches[true], branches[false], wide)
	}
}

var testsSink []pipeline.Instance

// TestSampleTestsAllocs pins what drawing tests allocates: the slab of test
// codes and the tests, plus the dedupe map when sampling (which may stay
// on the stack), and nothing per parameter.
func TestSampleTestsAllocs(t *testing.T) {
	sp, err := synth.Generate(rand.New(rand.NewSource(5)), synth.Config{MinParams: 15, MaxParams: 15}, synth.SingleConjunction)
	if err != nil {
		t.Fatal(err)
	}
	s := sp.Space
	sampled, err := predicate.RegionOf(s, sp.Truth[0])
	if err != nil {
		t.Fatal(err)
	}
	// Fixing every parameter but the last leaves |Domain| ≤ 30 instances,
	// under a cap of 64: the exhaustive branch.
	var fixed predicate.Conjunction
	for i := 0; i < s.Len()-1; i++ {
		fixed = append(fixed, predicate.T(s.At(i).Name, predicate.Eq, s.At(i).Domain[0]))
	}
	exhaustive, err := predicate.RegionOf(s, fixed)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		region predicate.Region
		max    int
		allocs float64
	}{{"sampled", sampled, 8, 3}, {"exhaustive", exhaustive, 64, 2}} {
		opts := DDTOptions{Rand: rand.New(rand.NewSource(1)), MaxSuspectTests: c.max}
		if n := testing.AllocsPerRun(50, func() { testsSink = sampleTests(s, c.region, opts) }); n > c.allocs {
			t.Errorf("%s: sampleTests allocated %v times, want at most %v", c.name, n, c.allocs)
		}
	}
}

// BenchmarkSampleTests measures drawing one suspect's verification tests:
// the default 8, sampled from the region of a planted conjunction over a
// 15-parameter space of 5 to 30 values each, the shape of the paper's
// Section 5.1 pipelines. It sits beside the sampler differential because
// sampleTests is unexported.
func BenchmarkSampleTests(b *testing.B) {
	sp, err := synth.Generate(rand.New(rand.NewSource(5)), synth.Config{MinParams: 15, MaxParams: 15}, synth.SingleConjunction)
	if err != nil {
		b.Fatal(err)
	}
	region, err := predicate.RegionOf(sp.Space, sp.Truth[0])
	if err != nil {
		b.Fatal(err)
	}
	opts := DDTOptions{Rand: rand.New(rand.NewSource(1)), MaxSuspectTests: 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		testsSink = sampleTests(sp.Space, region, opts)
	}
	if len(testsSink) != opts.MaxSuspectTests {
		b.Fatalf("drew %d tests, want %d", len(testsSink), opts.MaxSuspectTests)
	}
}
