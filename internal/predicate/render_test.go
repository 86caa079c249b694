package predicate

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/pipeline"
)

// sprintfTriple and sprintfConjunction are the fmt renderings that
// Triple.String and Conjunction.String must reproduce byte for byte, with
// values in the strconv forms Value.String documents.
func sprintfTriple(t Triple) string {
	return fmt.Sprintf("%s %s %s", t.Param, t.Cmp, valueForm(t.Value))
}

func valueForm(v pipeline.Value) string {
	switch v.Kind() {
	case pipeline.Ordinal:
		return strconv.FormatFloat(v.Num(), 'g', -1, 64)
	case pipeline.Categorical:
		return strconv.Quote(v.Str())
	}
	return "<invalid>"
}

func sprintfConjunction(c Conjunction) string {
	if len(c) == 0 {
		return "TRUE"
	}
	parts := make([]string, len(c))
	for i, t := range c {
		parts[i] = sprintfTriple(t)
	}
	return strings.Join(parts, " AND ")
}

// renderValues covers integral and fractional ordinals, the extremes of
// the shortest float form, signed zero and non-finite values, and
// categoricals that need escaping or carry non-ASCII bytes.
var renderValues = []pipeline.Value{
	pipeline.Ord(0), pipeline.Ord(math.Copysign(0, -1)), pipeline.Ord(3), pipeline.Ord(-17),
	pipeline.Ord(2.5), pipeline.Ord(0.1), pipeline.Ord(1e21), pipeline.Ord(1e20),
	pipeline.Ord(5e-324), pipeline.Ord(math.MaxFloat64), pipeline.Ord(math.Inf(-1)),
	pipeline.Ord(math.NaN()),
	pipeline.Cat(""), pipeline.Cat("a"), pipeline.Cat(`say "hi"`), pipeline.Cat(`back\slash`),
	pipeline.Cat("tab\tnewline\n"), pipeline.Cat("naïve ünïcödé ✓"), pipeline.Cat("\xff\xfe"),
	{},
}

// TestRenderingMatchesSprintf checks Triple.String and Conjunction.String
// against the fmt renderings for every comparator and every value above,
// and for conjunctions of up to three of those triples.
func TestRenderingMatchesSprintf(t *testing.T) {
	cmps := []Comparator{Eq, Neq, Le, Gt, Comparator(0), Comparator(9)}
	var triples []Triple
	for _, c := range cmps {
		for _, v := range renderValues {
			for _, p := range []string{"p1", "learning rate", "é"} {
				triples = append(triples, T(p, c, v))
			}
		}
	}
	for _, tr := range triples {
		if got, want := tr.String(), sprintfTriple(tr); got != want {
			t.Fatalf("Triple.String = %q, Sprintf form %q", got, want)
		}
	}
	for i := range triples {
		for n := 0; n <= 3 && i+n <= len(triples); n++ {
			c := Conjunction(triples[i : i+n])
			if got, want := c.String(), sprintfConjunction(c); got != want {
				t.Fatalf("Conjunction.String = %q, Sprintf form %q", got, want)
			}
		}
	}
	// A conjunction longer than String's stack buffer.
	long := Conjunction(triples[:40])
	if got, want := long.String(), sprintfConjunction(long); got != want {
		t.Fatalf("long Conjunction.String = %q, Sprintf form %q", got, want)
	}
}

// FuzzTripleString checks that Triple.String and Conjunction.String equal
// the fmt renderings for arbitrary names, labels, numbers and comparators.
func FuzzTripleString(f *testing.F) {
	for _, v := range renderValues {
		if v.Kind() == pipeline.Ordinal {
			f.Add("p1", uint8(Le), true, v.Num(), "")
		} else if v.Kind() == pipeline.Categorical {
			f.Add("p2", uint8(Eq), false, 0.0, v.Str())
		}
	}
	f.Add("a AND b", uint8(Gt), true, 1e21, "")
	f.Add("", uint8(Neq), false, 0.0, `"\`)
	f.Fuzz(func(t *testing.T, param string, cmp uint8, ordinal bool, num float64, label string) {
		v := pipeline.Cat(label)
		if ordinal {
			v = pipeline.Ord(num)
		}
		tr := T(param, Comparator(cmp), v)
		if got, want := tr.String(), sprintfTriple(tr); got != want {
			t.Fatalf("Triple.String = %q, Sprintf form %q", got, want)
		}
		c := And(tr, T(label, Eq, pipeline.Cat(param)))
		if Comparator(cmp) >= Eq && Comparator(cmp) <= Gt {
			c = append(c, tr.Negated())
		}
		if got, want := c.String(), sprintfConjunction(c); got != want {
			t.Fatalf("Conjunction.String = %q, Sprintf form %q", got, want)
		}
	})
}
