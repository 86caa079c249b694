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
// Trees grow from a columnar training set, a Grower: one value-code column
// per parameter and one succeed and one fail vote per example, appended
// to as the provenance grows rather than rebuilt for each tree. The
// Debugging Decision Trees loop keeps one Grower per run and regrows its
// tree from it after every refuted suspect; Build is the one-shot form
// over an example slice. A build reads only the columns and the votes,
// never an Instance, and reuses the Grower's scratch, so it allocates
// only its nodes.
//
// Split search is counting-based: at each node one pass per parameter
// over the node's rows of that column accumulates per-code succeed/fail
// vote counts, and the information gain of every candidate derives from
// those counts (prefix sums for ordinal thresholds). Candidates are
// visited in value order by sorting the node's k observed codes as
// packed integer keys, rank<<32 | code, where rank comes from the space's
// cached value order (pipeline.Space.ValueOrder, fetched once per build);
// ranks are a permutation, so the key order is the value order. A node
// costs O(params × (examples + k log k)) integer work, with no lock and no
// Value comparison. Entropies of vote counts below 128 come from a table
// filled on first use by entropyCounts itself, so every gain, tie-break
// and tree is bit-identical to computing each entropy directly.
package dtree

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

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
// Build is the one-shot form of a Grower: it loads the examples into a
// training set sized to them, every column in one allocation, and builds
// once. It panics if an example's instance belongs to another space.
func Build(s *pipeline.Space, examples []Example) *Node {
	g := newGrower(s, len(examples))
	for i := range examples {
		if err := g.Add(examples[i]); err != nil {
			panic(err)
		}
	}
	return g.Build()
}

// Grower is an append-only training set that grows decision trees over
// all the examples added so far. It holds the examples as columns — one
// value-code column per parameter and a succeed and a fail vote per
// example — and the scratch every Build reuses: the index permutation the
// nodes partition, the partition buffer, the per-code vote counts and the
// sort keys. Building twice over the same examples allocates only the
// second tree's nodes, so a caller whose provenance only grows, like the
// Debugging Decision Trees loop, keeps one Grower and calls Add and Build
// in turn.
//
// A Grower is not safe for concurrent use.
type Grower struct {
	space *pipeline.Space
	// cols[i][j] is parameter i's value code in example j.
	cols [][]uint32
	// succ[j] and fail[j] are example j's votes: its weight on the side of
	// its outcome and zero on the other. Examples without a vote are never
	// added, so succ[j]+fail[j] >= 1.
	succ, fail []int

	// Build scratch. idx is the tree-wide permutation of example indices:
	// each node owns the window idx[lo:hi] and stably partitions it in
	// place for its children, staging the no-side through tmp.
	idx, tmp []int32
	// vals[i] and rank[i] are parameter i's code→value and code→rank
	// snapshots (pipeline.Space.ValueOrder), taken at the start of each
	// build; every added example's codes were interned before it was
	// added, so they cover them all.
	vals [][]pipeline.Value
	rank [][]uint32
	// countS/countF accumulate succeed/fail votes per value code of the
	// parameter being scanned; keys holds its observed codes as
	// rank<<32 | code.
	countS, countF []int
	keys           []uint64
}

// NewGrower returns an empty training set for instances of s.
func NewGrower(s *pipeline.Space) *Grower { return newGrower(s, 0) }

// newGrower returns an empty training set with room for n examples, all
// its columns carved from one allocation.
func newGrower(s *pipeline.Space, n int) *Grower {
	g := &Grower{
		space: s,
		cols:  make([][]uint32, s.Len()),
		vals:  make([][]pipeline.Value, s.Len()),
		rank:  make([][]uint32, s.Len()),
	}
	if n > 0 {
		flat := make([]uint32, n*s.Len())
		for i := range g.cols {
			g.cols[i] = flat[i*n : i*n : (i+1)*n]
		}
		votes := make([]int, 2*n)
		g.succ, g.fail = votes[:0:n], votes[n:n:2*n]
	}
	return g
}

// Add appends an example to the training set. It fails, adding nothing,
// when the example's instance belongs to another space. An example that
// carries no vote — any outcome but Succeed or Fail — is accepted and left
// out: it would never affect a split or a count.
func (g *Grower) Add(ex Example) error {
	if ex.Instance.Space() != g.space {
		return fmt.Errorf("dtree: example instance belongs to a different space")
	}
	var s, f int
	switch ex.Outcome {
	case pipeline.Succeed:
		s = ex.weight()
	case pipeline.Fail:
		f = ex.weight()
	default:
		return nil
	}
	for i := range g.cols {
		g.cols[i] = append(g.cols[i], ex.Instance.Code(i))
	}
	g.succ = append(g.succ, s)
	g.fail = append(g.fail, f)
	return nil
}

// Build grows a full decision tree over every example added so far, as
// the package-level Build does over an example slice, and returns its
// root.
func (g *Grower) Build() *Node {
	g.prepare()
	return g.grow(0, len(g.idx))
}

// prepare readies the build scratch for the examples added so far: fresh
// value-order snapshots, count arrays covering every code, and the
// identity permutation.
func (g *Grower) prepare() {
	entropyOnce.Do(fillEntropyTable)
	codes := 0
	for i := range g.cols {
		g.vals[i], g.rank[i] = g.space.ValueOrder(i)
		codes = max(codes, len(g.vals[i]))
	}
	if len(g.countS) < codes {
		g.countS = make([]int, codes)
		g.countF = make([]int, codes)
		g.keys = make([]uint64, 0, codes)
	}
	n := len(g.succ)
	if cap(g.idx) < n {
		g.idx = make([]int32, n, cap(g.succ))
		g.tmp = make([]int32, 0, cap(g.succ))
	}
	g.idx = g.idx[:n]
	for j := range g.idx {
		g.idx[j] = int32(j)
	}
}

// grow builds the subtree over the examples of the window idx[lo:hi].
func (g *Grower) grow(lo, hi int) *Node {
	n := &Node{}
	for _, j := range g.idx[lo:hi] {
		n.NSucceed += g.succ[j]
		n.NFail += g.fail[j]
	}
	if n.NSucceed == 0 || n.NFail == 0 {
		return n
	}
	sp, ok := g.bestSplit(lo, hi, n.NSucceed, n.NFail)
	if !ok {
		return n
	}
	mid := g.partition(lo, hi, sp)
	n.Split = sp.t
	n.Yes = g.grow(lo, mid)
	n.No = g.grow(mid, hi)
	return n
}

// split is a candidate split: its triple, and the parameter and value code
// the triple tests, which is all the partition needs.
type split struct {
	t     predicate.Triple
	param int
	code  uint32
}

// bestSplit evaluates every candidate triple over the examples of the
// node's window idx[lo:hi], whose votes total totS and totF, and returns
// the one with the highest information gain, breaking ties by the
// canonical triple order so the tree is deterministic. Because the paper
// builds a *complete* tree, zero-gain splits are still taken when they
// separate the examples (greedy gain alone deadlocks on XOR-structured
// data, leaving pure-fail regions undiscovered); ok is false only when no
// candidate separates the examples at all.
//
// The search is counting-based: one pass per parameter over its column
// accumulates per-code succeed/fail votes, and the gain of every "="
// candidate falls out of the per-code counts while every "<=" candidate
// falls out of prefix sums over the codes sorted by value rank — O(params
// × (examples + k log k)) per node for k observed codes, instead of the
// naive O(params × values × examples). The gain arithmetic is identical to
// evaluating each candidate against the example list, so the chosen split
// (including tie-breaks) matches the naive search exactly.
//
//bugdoc:hotpath
func (g *Grower) bestSplit(lo, hi, totS, totF int) (split, bool) {
	window := g.idx[lo:hi]
	// Weighted example mass; equals the window's length for unit weights,
	// so the gain arithmetic (and every tie-break) of a deterministic
	// session is unchanged.
	total := float64(totS + totF)
	baseH := entropy(totS, totF)
	var best split
	bestGain := -1.0
	for i, col := range g.cols {
		p := g.space.At(i)
		vals, rank := g.vals[i], g.rank[i]
		// Count votes per value code of parameter i, keying each code on
		// its first sight.
		keys := g.keys[:0]
		for _, j := range window {
			c := col[j]
			if g.countS[c]+g.countF[c] == 0 {
				keys = append(keys, uint64(rank[c])<<32|uint64(c))
			}
			g.countS[c] += g.succ[j]
			g.countF[c] += g.fail[j]
		}
		slices.Sort(keys)
		// Thresholds between consecutive observed ordinal values: testing
		// "<= v" for each observed v covers them all (the largest is
		// rejected by the empty-no-side guard, since nothing exceeds it).
		// Prefix sums over the sorted codes give the yes-side counts of
		// each threshold. NaN values — possible only through out-of-domain
		// instances — never satisfy any "<=": NaN ranks last, so it is
		// the largest observed value, never a threshold, and its examples
		// land on every no side, exactly as Holds evaluates them. A
		// categorical candidate "= v" counts v's votes alone.
		yesS, yesF := 0, 0
		for _, k := range keys {
			c := uint32(k)
			cmp := predicate.Eq
			if p.Kind == pipeline.Ordinal {
				cmp = predicate.Le
				yesS += g.countS[c]
				yesF += g.countF[c]
			} else {
				yesS, yesF = g.countS[c], g.countF[c]
			}
			yes, no := yesS+yesF, totS+totF-yesS-yesF
			if yes == 0 || no == 0 {
				continue
			}
			gain := baseH -
				float64(yes)/total*entropy(yesS, yesF) -
				float64(no)/total*entropy(totS-yesS, totF-yesF)
			t := predicate.T(p.Name, cmp, vals[c])
			if gain > bestGain+1e-12 ||
				(math.Abs(gain-bestGain) <= 1e-12 && bestGain >= 0 && t.Less(best.t)) {
				best, bestGain = split{t: t, param: i, code: c}, gain
			}
		}
		for _, k := range keys {
			g.countS[uint32(k)], g.countF[uint32(k)] = 0, 0
		}
		g.keys = keys
	}
	// A separating split always exists unless the examples coincide on
	// every parameter (bestGain stays -1 in that case).
	return best, bestGain >= 0
}

// partition stably partitions the window idx[lo:hi] by sp and returns the
// boundary: the examples satisfying sp move, in order, to idx[lo:mid] and
// the rest to idx[mid:hi]. The yes side is decided on codes alone: an
// equality holds for its own code only (interned values are distinct), and
// a threshold holds for the codes ranked at or below its own (ranks follow
// numeric order and put NaN last). tmp is free to reuse in the recursive
// calls because its contents are copied back before they run.
//
//bugdoc:hotpath
func (g *Grower) partition(lo, hi int, sp split) int {
	col, rank := g.cols[sp.param], g.rank[sp.param]
	le := sp.t.Cmp == predicate.Le
	thr := rank[sp.code]
	mid := lo
	tmp := g.tmp[:0]
	for _, j := range g.idx[lo:hi] {
		c := col[j]
		if c == sp.code || le && rank[c] <= thr {
			g.idx[mid] = j
			mid++
		} else {
			tmp = append(tmp, j)
		}
	}
	copy(g.idx[mid:hi], tmp)
	return mid
}

// entropyTableSize bounds the vote counts whose entropies are tabled.
const entropyTableSize = 128

var (
	entropyOnce sync.Once
	// entropyTable[s][f] is entropyCounts(float64(s), float64(f)), filled
	// by fillEntropyTable on the first build.
	entropyTable [entropyTableSize][entropyTableSize]float64
)

func fillEntropyTable() {
	for s := range entropyTable {
		for f := range entropyTable[s] {
			entropyTable[s][f] = entropyCounts(float64(s), float64(f))
		}
	}
}

// entropy is entropyCounts(float64(s), float64(f)) for vote counts s, f >=
// 0, read from the table when both are below entropyTableSize. Callers
// have filled the table through entropyOnce.
//
//bugdoc:hotpath
func entropy(s, f int) float64 {
	if uint(s) < entropyTableSize && uint(f) < entropyTableSize {
		return entropyTable[s][f]
	}
	return entropyCounts(float64(s), float64(f))
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
	// Each path is rendered once, not on both sides of every comparison.
	type keyed struct {
		Suspect
		key string
	}
	var ks []keyed
	var walk func(node *Node, path predicate.Conjunction)
	walk = func(node *Node, path predicate.Conjunction) {
		if node.IsLeaf() {
			if node.PureFail() {
				c := path.Canonical()
				ks = append(ks, keyed{Suspect{Path: c, Support: node.NFail}, c.String()})
			}
			return
		}
		walk(node.Yes, append(path.Clone(), node.Split))
		walk(node.No, append(path.Clone(), node.Split.Negated()))
	}
	walk(n, nil)
	sort.Slice(ks, func(i, j int) bool {
		if len(ks[i].Path) != len(ks[j].Path) {
			return len(ks[i].Path) < len(ks[j].Path)
		}
		if ks[i].Support != ks[j].Support {
			return ks[i].Support > ks[j].Support
		}
		return ks[i].key < ks[j].key
	})
	var out []Suspect
	for _, k := range ks {
		out = append(out, k.Suspect)
	}
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
