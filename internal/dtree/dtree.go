// Package dtree builds the debugging decision trees of BugDoc Section 4.2:
// full (unpruned) binary decision trees over pipeline parameters, with the
// instance evaluation (succeed/fail) as the target. Inner nodes test one
// parameter-comparator-value triple; categorical parameters split on
// equality, ordinal parameters on thresholds, so root-to-leaf paths are
// conjunctions of triples that may contain inequalities.
//
// BugDoc uses the tree unusually: not to predict untested configurations,
// but to discover short paths ending in pure-fail leaves. Those paths are
// the "suspects" the Debugging Decision Trees algorithm then verifies by
// executing new instances.
//
// Split search is counting-based: one columnar pass per parameter over the
// interned value codes accumulates per-code succeed/fail counts, and the
// information gain of every candidate derives from those counts (prefix
// sums for ordinal thresholds). Candidates are visited in value order by
// sorting the node's k observed codes by the space's cached value ranks
// (pipeline.Space.ValueOrder, fetched once per build), so a node costs
// O(params × (examples + k log k)) integer work, with no lock and no
// Value comparison, instead of evaluating each candidate against every
// example.
package dtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/pipeline"
	"repro/internal/predicate"
)

// Example is one labelled training point: an executed instance and its
// evaluation. Weight is the label's confidence as an integer vote count —
// under a flaky-oracle quorum it is the vote margin (|succeed − fail|
// votes), so an example resolved 5–0 pulls splits five times harder than
// one resolved 3–2. Zero means 1, so deterministic single-trial sessions
// need not set it; all counting stays integer arithmetic, keeping tree
// growth deterministic. Examples labelled OutcomeInconclusive carry no
// vote either way and never affect a split or a leaf count.
type Example struct {
	Instance pipeline.Instance
	Outcome  pipeline.Outcome
	Weight   int
}

// weight normalizes the zero value to one vote.
func (ex *Example) weight() int {
	if ex.Weight <= 0 {
		return 1
	}
	return ex.Weight
}

// Node is one node of a debugging decision tree. Leaves have Yes == No ==
// nil; inner nodes route instances satisfying Split to Yes and the rest to
// No. Counts cover the training examples that reached the node, summed by
// example weight (so under a flaky quorum they are vote margins, not
// example counts).
type Node struct {
	Split    predicate.Triple
	Yes, No  *Node
	NSucceed int
	NFail    int
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.Yes == nil && n.No == nil }

// PureFail reports whether the node saw only failing examples.
func (n *Node) PureFail() bool { return n.NFail > 0 && n.NSucceed == 0 }

// PureSucceed reports whether the node saw only succeeding examples.
func (n *Node) PureSucceed() bool { return n.NSucceed > 0 && n.NFail == 0 }

// Build grows a full decision tree (no pruning, per the paper: "we build a
// complete decision tree") over the examples. Splitting stops only when a
// node is pure or no candidate split separates its examples — such impure
// unsplittable leaves are the paper's "mixed" leaves.
//
// Partitioning is columnar: the whole tree shares one permutation of
// example indices, and each node stably partitions its window of that
// permutation in place, so descending a level moves hi−lo int32s instead
// of copying []Example slices at every node.
func Build(s *pipeline.Space, examples []Example) *Node {
	return newBuilder(s, examples).build(0, len(examples))
}

// builder carries the state shared across every node of one Build call:
// the examples, the single index permutation the nodes partition, the
// value-order snapshots, and the per-parameter counting scratch, so growing
// a tree allocates per node, not per candidate split and not per partition.
type builder struct {
	s        *pipeline.Space
	examples []Example
	// idx is the tree-wide permutation of example indices; each node owns
	// the window idx[lo:hi] and partitions it in place for its children.
	// tmp buffers the no-side during the stable partition.
	idx, tmp []int32
	// vals[i] and rank[i] are parameter i's code→value and code→rank
	// snapshots (pipeline.Space.ValueOrder), taken once per build; every
	// example's codes were interned before the build started, so they
	// cover them all.
	vals [][]pipeline.Value
	rank [][]uint32
	// countS/countF accumulate succeed/fail counts per value code during
	// the columnar pass; order lists the observed codes (first-seen, then
	// sorted by rank) of the current parameter.
	countS, countF []int
	order          []uint32
}

func newBuilder(s *pipeline.Space, examples []Example) *builder {
	b := &builder{
		s:        s,
		examples: examples,
		idx:      make([]int32, len(examples)),
		tmp:      make([]int32, 0, len(examples)),
		vals:     make([][]pipeline.Value, s.Len()),
		rank:     make([][]uint32, s.Len()),
	}
	for i := range b.idx {
		b.idx[i] = int32(i)
	}
	for i := range b.vals {
		b.vals[i], b.rank[i] = s.ValueOrder(i)
	}
	return b
}

func (b *builder) build(lo, hi int) *Node {
	n := &Node{}
	for _, j := range b.idx[lo:hi] {
		ex := &b.examples[j]
		switch ex.Outcome {
		case pipeline.Succeed:
			n.NSucceed += ex.weight()
		case pipeline.Fail:
			n.NFail += ex.weight()
		}
	}
	if n.NSucceed == 0 || n.NFail == 0 || hi-lo < 2 {
		return n
	}
	split, ok := b.bestSplitRange(lo, hi)
	if !ok {
		return n
	}
	// Stable in-place partition of the node's index window: yes-side
	// compacts to the front, no-side stages through the shared scratch.
	// The parameter index and its value snapshot are resolved once; Holds
	// is a single integer or float comparison per example. tmp is free to
	// reuse in the recursive calls because its contents are copied back
	// before they run.
	pi, _ := b.s.Index(split.Param)
	vals := b.vals[pi]
	mid := lo
	tmp := b.tmp[:0]
	for _, j := range b.idx[lo:hi] {
		if split.Holds(vals[b.examples[j].Instance.Code(pi)]) {
			b.idx[mid] = j
			mid++
		} else {
			tmp = append(tmp, j)
		}
	}
	copy(b.idx[mid:hi], tmp)
	n.Split = split
	n.Yes = b.build(lo, mid)
	n.No = b.build(mid, hi)
	return n
}

// bestSplit is the slice-facing form of bestSplitRange, kept as the entry
// point for the differential split tests: it searches the whole example
// list through a throwaway builder. Build's internal nodes use
// bestSplitRange directly on the shared permutation.
func bestSplit(s *pipeline.Space, examples []Example) (predicate.Triple, bool) {
	return newBuilder(s, examples).bestSplitRange(0, len(examples))
}

// bestSplitRange evaluates every candidate triple over the examples of the
// node's index window idx[lo:hi] and returns the one with the highest
// information gain, breaking ties by the canonical triple order so the tree
// is deterministic. Because the paper builds a *complete* tree, zero-gain
// splits are still taken when they separate the examples (greedy gain alone
// deadlocks on XOR-structured data, leaving pure-fail regions
// undiscovered); ok is false only when no candidate separates the examples
// at all.
//
// The search is counting-based: one columnar pass per parameter
// accumulates per-value-code succeed/fail counts, and the gain of every
// "=" candidate falls out of the per-code counts while every "<="
// candidate falls out of prefix sums over the codes sorted by value rank —
// O(params × (examples + k log k)) per node for k observed codes, instead
// of the naive O(params × values × examples). The gain arithmetic is
// identical to evaluating each candidate against the example list, so the
// chosen split (including tie-breaks) matches the naive search exactly.
func (b *builder) bestSplitRange(lo, hi int) (predicate.Triple, bool) {
	s := b.s
	window := b.idx[lo:hi]
	totS, totF := 0, 0
	for _, j := range window {
		ex := &b.examples[j]
		switch ex.Outcome {
		case pipeline.Succeed:
			totS += ex.weight()
		case pipeline.Fail:
			totF += ex.weight()
		}
	}
	// Weighted example mass; equals len(window) for unit weights, so the
	// gain arithmetic (and every tie-break) of a deterministic session is
	// unchanged.
	total := float64(totS + totF)
	baseH := entropyCounts(float64(totS), float64(totF))
	best := predicate.Triple{}
	bestGain := -1.0
	consider := func(t predicate.Triple, yesS, yesF int) {
		yes, no := yesS+yesF, totS+totF-yesS-yesF
		if yes == 0 || no == 0 {
			return
		}
		gain := baseH -
			float64(yes)/total*entropyCounts(float64(yesS), float64(yesF)) -
			float64(no)/total*entropyCounts(float64(totS-yesS), float64(totF-yesF))
		if gain > bestGain+1e-12 ||
			(math.Abs(gain-bestGain) <= 1e-12 && bestGain >= 0 && t.Less(best)) {
			best, bestGain = t, gain
		}
	}
	for i := 0; i < s.Len(); i++ {
		p := s.At(i)
		vals, rank := b.vals[i], b.rank[i]
		// Columnar pass: count labels per value code of parameter i.
		if nc := len(vals); len(b.countS) < nc {
			b.countS = make([]int, nc)
			b.countF = make([]int, nc)
		}
		b.order = b.order[:0]
		for _, j := range window {
			ex := &b.examples[j]
			var dS, dF int
			switch ex.Outcome {
			case pipeline.Succeed:
				dS = ex.weight()
			case pipeline.Fail:
				dF = ex.weight()
			default:
				continue // inconclusive: no vote, no threshold of its own
			}
			c := ex.Instance.Code(i)
			if b.countS[c]+b.countF[c] == 0 {
				b.order = append(b.order, c)
			}
			b.countS[c] += dS
			b.countF[c] += dF
		}
		slices.SortFunc(b.order, func(x, y uint32) int { return cmp.Compare(rank[x], rank[y]) })
		switch p.Kind {
		case pipeline.Categorical:
			for _, c := range b.order {
				consider(predicate.T(p.Name, predicate.Eq, vals[c]), b.countS[c], b.countF[c])
			}
		case pipeline.Ordinal:
			// Thresholds between consecutive observed values: testing
			// "<= v" for each observed v covers them all (the largest is
			// rejected by consider's empty-no-side guard when nothing
			// exceeds it). Prefix sums over the sorted codes give the
			// yes-side counts of each threshold. NaN values — possible
			// only through out-of-domain instances — never satisfy any
			// "<=" and are never thresholds themselves; NaN ranks last, so
			// the prefix sums stop before it and its examples land on
			// every no side, exactly as Holds evaluates them.
			cumS, cumF := 0, 0
			for _, c := range b.order {
				v := vals[c]
				if math.IsNaN(v.Num()) {
					break
				}
				cumS += b.countS[c]
				cumF += b.countF[c]
				consider(predicate.T(p.Name, predicate.Le, v), cumS, cumF)
			}
		}
		for _, c := range b.order {
			b.countS[c], b.countF[c] = 0, 0
		}
	}
	// A separating split always exists unless the examples coincide on
	// every parameter (bestGain stays -1 in that case).
	if bestGain < 0 {
		return predicate.Triple{}, false
	}
	return best, true
}

// entropyCounts is the Shannon entropy of a succeed/fail count pair.
func entropyCounts(s, f float64) float64 {
	total := s + f
	h := 0.0
	for _, c := range []float64{s, f} {
		if c > 0 {
			p := c / total
			h -= p * math.Log2(p)
		}
	}
	return h
}

// Suspect is a root-to-leaf path ending in a pure-fail leaf: a conjunction
// of triples that, on the evidence so far, always fails. Support counts the
// failing examples in the leaf.
type Suspect struct {
	Path    predicate.Conjunction
	Support int
}

// Suspects extracts all pure-fail paths, shortest first (ties broken by
// higher support, then lexicographically) — the order in which the
// Debugging Decision Trees algorithm tests them, since shorter paths make
// more concise root causes.
func (n *Node) Suspects() []Suspect {
	var out []Suspect
	var walk func(node *Node, path predicate.Conjunction)
	walk = func(node *Node, path predicate.Conjunction) {
		if node.IsLeaf() {
			if node.PureFail() {
				out = append(out, Suspect{Path: path.Canonical(), Support: node.NFail})
			}
			return
		}
		walk(node.Yes, append(path.Clone(), node.Split))
		walk(node.No, append(path.Clone(), node.Split.Negated()))
	}
	walk(n, nil)
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Path) != len(out[j].Path) {
			return len(out[i].Path) < len(out[j].Path)
		}
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].Path.String() < out[j].Path.String()
	})
	return out
}

// MixedLeaves counts impure leaves, a diagnostic for how separable the
// provenance currently is.
func (n *Node) MixedLeaves() int {
	if n.IsLeaf() {
		if !n.PureFail() && !n.PureSucceed() {
			return 1
		}
		return 0
	}
	return n.Yes.MixedLeaves() + n.No.MixedLeaves()
}

// Depth returns the height of the tree (leaves have depth 1).
func (n *Node) Depth() int {
	if n.IsLeaf() {
		return 1
	}
	d := n.Yes.Depth()
	if nd := n.No.Depth(); nd > d {
		d = nd
	}
	return d + 1
}

// String renders the tree with indentation, for debugging and examples.
func (n *Node) String() string {
	var b strings.Builder
	var walk func(node *Node, indent string, label string)
	walk = func(node *Node, indent, label string) {
		if node.IsLeaf() {
			state := "mixed"
			if node.PureFail() {
				state = "fail"
			} else if node.PureSucceed() {
				state = "succeed"
			}
			fmt.Fprintf(&b, "%s%s[%s: %d succeed, %d fail]\n", indent, label, state, node.NSucceed, node.NFail)
			return
		}
		fmt.Fprintf(&b, "%s%s%s?\n", indent, label, node.Split)
		walk(node.Yes, indent+"  ", "yes: ")
		walk(node.No, indent+"  ", "no:  ")
	}
	walk(n, "", "")
	return b.String()
}
