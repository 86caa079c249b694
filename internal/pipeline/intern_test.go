package pipeline

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"
)

// randomInternSpace builds a space mixing ordinal and categorical
// parameters with small domains, so random instances collide often.
func randomInternSpace(t *testing.T, r *rand.Rand) *Space {
	t.Helper()
	n := 2 + r.Intn(3)
	params := make([]Parameter, n)
	for i := range params {
		name := string(rune('a' + i))
		if r.Intn(2) == 0 {
			dom := make([]Value, 2+r.Intn(3))
			for j := range dom {
				dom[j] = Ord(float64(j + 1))
			}
			params[i] = Parameter{Name: name, Kind: Ordinal, Domain: dom}
		} else {
			labels := []string{"x", "y", "z", "w"}
			dom := make([]Value, 2+r.Intn(3))
			for j := range dom {
				dom[j] = Cat(labels[j])
			}
			params[i] = Parameter{Name: name, Kind: Categorical, Domain: dom}
		}
	}
	return MustSpace(params...)
}

// valueEqual is the pre-interning definition of instance equality: same
// space, identical values under ==.
func valueEqual(a, b Instance) bool {
	if a.Space() != b.Space() || a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Value(i) != b.Value(i) {
			return false
		}
	}
	return true
}

// TestInternIdentityProperties checks, over randomized instance pairs, that
// the interned representation is a faithful identity: Equal(a,b) holds
// exactly when the values coincide, exactly when the code vectors coincide,
// and Equal implies hash equality.
func TestInternIdentityProperties(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		s := randomInternSpace(t, r)
		ins := make([]Instance, 40)
		for i := range ins {
			ins[i] = s.RandomInstance(r)
			// Occasionally leave the declared domain (the universe is
			// expandable) so interning covers out-of-domain values too.
			if r.Intn(4) == 0 {
				j := r.Intn(s.Len())
				if s.At(j).Kind == Ordinal {
					ins[i] = ins[i].With(j, Ord(float64(100+r.Intn(3))))
				} else {
					ins[i] = ins[i].With(j, Cat("extra"))
				}
			}
		}
		for i := range ins {
			for j := range ins {
				a, b := ins[i], ins[j]
				wantEq := valueEqual(a, b)
				if got := a.Equal(b); got != wantEq {
					t.Fatalf("Equal(%v, %v) = %v, value-wise %v", a, b, got, wantEq)
				}
				codesEq := true
				for k := 0; k < a.Len(); k++ {
					if a.Code(k) != b.Code(k) {
						codesEq = false
						break
					}
				}
				if codesEq != wantEq {
					t.Fatalf("code vectors of %v and %v agree=%v, want %v", a, b, codesEq, wantEq)
				}
				if wantEq && a.Hash() != b.Hash() {
					t.Fatalf("equal instances %v hash %x vs %x", a, a.Hash(), b.Hash())
				}
				if wantEq != (a.Key() == b.Key()) {
					t.Fatalf("Key agreement for %v and %v diverges from Equal", a, b)
				}
				// Disjointness and diff counts must match the value-wise
				// definitions.
				wantDis, wantDiff := true, 0
				for k := 0; k < a.Len(); k++ {
					if a.Value(k) == b.Value(k) {
						wantDis = false
					} else {
						wantDiff++
					}
				}
				if got := a.DisjointFrom(b); got != wantDis {
					t.Fatalf("DisjointFrom(%v, %v) = %v, want %v", a, b, got, wantDis)
				}
				if got := a.DiffCount(b); got != wantDiff {
					t.Fatalf("DiffCount(%v, %v) = %d, want %d", a, b, got, wantDiff)
				}
			}
		}
	}
}

// TestInternCodesAreDense checks codes are dense per parameter and that
// InternedValue inverts Code.
func TestInternCodesAreDense(t *testing.T) {
	s := MustSpace(
		Parameter{Name: "a", Kind: Ordinal, Domain: []Value{Ord(1), Ord(2)}},
		Parameter{Name: "b", Kind: Categorical, Domain: []Value{Cat("x"), Cat("y")}},
	)
	in := MustInstance(s, Ord(2), Cat("y"))
	for i := 0; i < s.Len(); i++ {
		if int(in.Code(i)) >= s.NumCodes(i) {
			t.Fatalf("code %d of parameter %d out of range %d", in.Code(i), i, s.NumCodes(i))
		}
		if got := s.InternedValue(i, in.Code(i)); got != in.Value(i) {
			t.Fatalf("InternedValue(%d, %d) = %v, want %v", i, in.Code(i), got, in.Value(i))
		}
	}
	// Out-of-domain values extend the code range.
	before := s.NumCodes(0)
	ext := in.With(0, Ord(99))
	if s.NumCodes(0) != before+1 || int(ext.Code(0)) != before {
		t.Fatalf("out-of-domain value: NumCodes %d->%d, code %d", before, s.NumCodes(0), ext.Code(0))
	}
	// Re-interning the same value is stable.
	again := in.With(0, Ord(99))
	if again.Code(0) != ext.Code(0) {
		t.Fatalf("re-interned code %d != %d", again.Code(0), ext.Code(0))
	}
}

// TestInternConcurrent builds instances from several goroutines over one
// space (parallel oracle dispatch builds them from worker goroutines),
// interning out-of-domain values through With, while readers call Value
// and String on shared instances and on instances the writers hand over.
// Run under -race -count=10 it checks the intern table's synchronization
// and the publication of the columns Value reads without a lock.
func TestInternConcurrent(t *testing.T) {
	s := MustSpace(
		Parameter{Name: "a", Kind: Ordinal, Domain: []Value{Ord(1), Ord(2), Ord(3)}},
		Parameter{Name: "b", Kind: Categorical, Domain: []Value{Cat("x"), Cat("y")}},
	)
	type built struct {
		in   Instance
		a, b Value  // the values in was built from
		want string // in.String() when it was built
	}
	var shared []built
	s.Enumerate(func(in Instance) bool {
		shared = append(shared, built{in: in, a: in.Value(0), b: in.Value(1), want: in.String()})
		return true
	})
	// Each writer builds 500 instances and hands every 4th to the readers;
	// the channel holds every send, so no writer waits on a reader.
	const writers, builds, every = 4, 500, 4
	handoff := make(chan built, writers*builds/every)
	var wwg, rwg sync.WaitGroup
	for w := 0; w < 4; w++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			failed := false
			check := func(b built) {
				switch {
				case failed:
				case b.in.Value(0) != b.a || b.in.Value(1) != b.b:
					t.Errorf("%v reads back (%v, %v), built from (%v, %v)", b.in, b.in.Value(0), b.in.Value(1), b.a, b.b)
					failed = true
				case b.want != "" && b.in.String() != b.want:
					t.Errorf("%v renders %q, rendered %q when built", b.in, b.in.String(), b.want)
					failed = true
				}
			}
			for {
				select {
				case b, ok := <-handoff:
					if !ok {
						return
					}
					check(b)
				default:
					for _, b := range shared {
						check(b)
					}
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(seed int64) {
			defer wwg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < builds; i++ {
				in := s.RandomInstance(r)
				a, b := Ord(float64(10+r.Intn(1000))), Cat(strconv.Itoa(r.Intn(1000)))
				ood := in.With(0, a).With(1, b)
				if in.Equal(ood) {
					t.Error("distinct instances compare equal")
					return
				}
				if i%every == 0 {
					handoff <- built{in: ood, a: a, b: b}
				}
			}
		}(int64(w))
	}
	wwg.Wait()
	close(handoff)
	rwg.Wait()
}

// checkValueOrder verifies one ValueOrder snapshot: rank is a permutation
// of the codes it covers, and listing the codes by rank lists their values
// in strictly increasing order, NaN last.
func checkValueOrder(vals []Value, rank []uint32) error {
	if len(rank) != len(vals) {
		return fmt.Errorf("%d ranks for %d values", len(rank), len(vals))
	}
	byRank := make([]int, len(rank))
	for i := range byRank {
		byRank[i] = -1
	}
	for c, r := range rank {
		if int(r) >= len(rank) || byRank[r] >= 0 {
			return fmt.Errorf("rank %d of code %d is out of range or repeated", r, c)
		}
		byRank[r] = c
	}
	for r := 1; r < len(byRank); r++ {
		a, b := vals[byRank[r-1]], vals[byRank[r]]
		var ordered bool
		if a.Kind() == Ordinal {
			ordered = !math.IsNaN(a.Num()) && (math.IsNaN(b.Num()) || a.Num() < b.Num())
		} else {
			ordered = a.Str() < b.Str()
		}
		if !ordered {
			return fmt.Errorf("rank %d holds %v but rank %d holds %v", r-1, a, r, b)
		}
	}
	return nil
}

// TestValueOrderConcurrent interns new values, most of them between
// existing ones, plus NaN, while other goroutines read the value order.
// Every snapshot a reader gets must rank its values correctly, a snapshot
// taken before the writes must not change under them, and the final order
// must cover every interned code. Run under -race -count=10 it checks the
// rank table's publication.
func TestValueOrderConcurrent(t *testing.T) {
	s := MustSpace(
		Parameter{Name: "a", Kind: Ordinal, Domain: []Value{Ord(0), Ord(1000)}},
		Parameter{Name: "b", Kind: Categorical, Domain: []Value{Cat("m")}},
	)
	before := make([][]Value, s.Len())
	beforeRank := make([][]uint32, s.Len())
	wantRank := make([][]uint32, s.Len())
	for i := range before {
		before[i], beforeRank[i] = s.ValueOrder(i)
		wantRank[i] = slices.Clone(beforeRank[i])
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for i := 0; i < s.Len(); i++ {
					if err := checkValueOrder(s.ValueOrder(i)); err != nil {
						t.Errorf("parameter %d: %v", i, err)
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	r := rand.New(rand.NewSource(3))
	for k := 0; k < 400; k++ {
		s.Intern(0, Ord(float64(r.Intn(100000))/100))
		s.Intern(1, Cat(strconv.Itoa(r.Intn(100000))))
		if k == 200 {
			s.Intern(0, Ord(math.NaN()))
		}
	}
	close(done)
	wg.Wait()
	for i := 0; i < s.Len(); i++ {
		vals, rank := s.ValueOrder(i)
		if len(vals) != s.NumCodes(i) {
			t.Fatalf("parameter %d: order covers %d codes, %d interned", i, len(vals), s.NumCodes(i))
		}
		if err := checkValueOrder(vals, rank); err != nil {
			t.Fatalf("parameter %d: %v", i, err)
		}
		if !slices.Equal(beforeRank[i], wantRank[i]) {
			t.Fatalf("parameter %d: early rank snapshot changed from %v to %v", i, wantRank[i], beforeRank[i])
		}
		for c, v := range before[i] {
			if v != vals[c] {
				t.Fatalf("parameter %d: early snapshot code %d now holds %v, want %v", i, c, v, vals[c])
			}
		}
	}
}

// TestInternKeys checks the keys values intern by: -0 and +0 share a
// code, every NaN payload shares one code, and a value of one kind never
// takes the code of a value of the other kind, whichever kind the
// parameter declares.
func TestInternKeys(t *testing.T) {
	s := MustSpace(
		Parameter{Name: "a", Kind: Ordinal, Domain: []Value{Ord(0), Ord(1)}},
		Parameter{Name: "b", Kind: Categorical, Domain: []Value{Cat(""), Cat("1")}},
	)
	if neg, pos := s.Intern(0, Ord(math.Copysign(0, -1))), s.Intern(0, Ord(0)); neg != pos {
		t.Fatalf("-0 interned as %d, +0 as %d", neg, pos)
	}
	nan := s.Intern(0, Ord(math.NaN()))
	for _, bits := range []uint64{0x7ff8000000000001, 0x7ff0000000000001, 0xfff8000000000000, 0x7fffffffffffffff} {
		if got := s.Intern(0, Ord(math.Float64frombits(bits))); got != nan {
			t.Fatalf("NaN %#x interned as %d, NaN as %d", bits, got, nan)
		}
	}
	// Instances that intern alike are Equal, and they render alike too:
	// each reads back its parameter's representative, whichever value it
	// was built from. Here +0 is the domain's; on a parameter that saw -0
	// first, -0 is.
	fresh := MustSpace(Parameter{Name: "z", Kind: Ordinal, Domain: []Value{Ord(1)}})
	negZero := Ord(math.Copysign(0, -1))
	for _, pair := range [][2]Instance{
		{MustInstance(s, negZero, Cat("")), MustInstance(s, Ord(0), Cat(""))},
		{MustInstance(s, Ord(0), Cat("")), MustInstance(s, negZero, Cat(""))},
		{MustInstance(fresh, negZero), MustInstance(fresh, Ord(0))},
		{MustInstance(s, Ord(math.Float64frombits(0x7ff8000000000001)), Cat("1")),
			MustInstance(s, Ord(math.Float64frombits(0xfff8000000000000)), Cat("1"))},
	} {
		a, b := pair[0], pair[1]
		if !a.Equal(b) {
			t.Fatalf("%v and %v intern alike but are not Equal", a, b)
		}
		if a.Key() != b.Key() || a.String() != b.String() {
			t.Fatalf("Equal instances render apart: %q / %s and %q / %s", a.Key(), a, b.Key(), b)
		}
	}
	for i := 0; i < s.Len(); i++ {
		codes := map[uint32]Value{}
		for _, v := range []Value{Ord(0), Ord(1), Cat(""), Cat("0"), Cat("1"), Ord(2)} {
			c := s.Intern(i, v)
			if prev, ok := codes[c]; ok && prev != v {
				t.Fatalf("parameter %d: %v and %v share code %d", i, prev, v, c)
			}
			codes[c] = v
			if again := s.Intern(i, v); again != c {
				t.Fatalf("parameter %d: %v re-interned as %d, first %d", i, v, again, c)
			}
			if got := s.InternedValue(i, c); got != v {
				t.Fatalf("parameter %d: code %d holds %v, want %v", i, c, got, v)
			}
		}
	}
}

// TestInstanceOfCodes checks that an instance built from a code vector is
// the one NewInstance builds from the values, including out-of-domain
// ones, and that unassigned codes and wrong lengths are refused.
func TestInstanceOfCodes(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		s := randomInternSpace(t, r)
		for k := 0; k < 20; k++ {
			want := s.RandomInstance(r)
			if r.Intn(3) == 0 {
				j := r.Intn(s.Len())
				if s.At(j).Kind == Ordinal {
					want = want.With(j, Ord(float64(100+r.Intn(3))))
				} else {
					want = want.With(j, Cat("extra"))
				}
			}
			codes := make([]uint32, s.Len())
			for i := range codes {
				codes[i] = want.Code(i)
			}
			got, err := s.InstanceOfCodes(codes)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) || got.Hash() != want.Hash() || !valueEqual(got, want) || got.Key() != want.Key() {
				t.Fatalf("InstanceOfCodes(%v) = %v, want %v", codes, got, want)
			}
		}
		bad := make([]uint32, s.Len())
		bad[s.Len()-1] = uint32(s.NumCodes(s.Len() - 1))
		if _, err := s.InstanceOfCodes(bad); err == nil {
			t.Fatalf("InstanceOfCodes accepted unassigned code %d", bad[s.Len()-1])
		}
		if _, err := s.InstanceOfCodes(make([]uint32, s.Len()+1)); err == nil {
			t.Fatal("InstanceOfCodes accepted a code vector of the wrong length")
		}
	}
}
