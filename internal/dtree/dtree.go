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
// over the node's rows of that column adds each example's votes to its
// value code's counts, and the information gain of every candidate
// derives from those counts (prefix sums for ordinal thresholds).
// Candidates are visited in value order by walking the parameter's codes
// listed by rank, a list each build inverts once from the space's cached
// value order (pipeline.Space.ValueOrder); the walk skips codes the node
// did not observe and clears the counts it reads. A node costs
// O(params × (examples + codes)) integer work, with no sort, no lock and
// no Value comparison, and builds a candidate's triple only when it beats
// or ties the best so far. Entropies of vote counts below 128 come from a
// table filled on first use by entropyCounts itself, so every gain,
// tie-break and tree is bit-identical to computing each entropy directly.
package dtree

import (
	"fmt"
	"math"
	"slices"
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
// nodes partition, the partition buffer, each parameter's codes in value
// order and the per-code vote counts. Building twice over the same
// examples allocates only the second tree's nodes, so a caller whose
// provenance only grows, like the Debugging Decision Trees loop, keeps one
// Grower and calls Add and Build in turn.
//
// A Grower is not safe for concurrent use.
type Grower struct {
	space *pipeline.Space
	// names[i] and cmps[i] are parameter i's name and the comparator its
	// candidate splits test: "<=" for ordinals, "=" for categoricals.
	names []string
	cmps  []predicate.Comparator
	// cols[i][j] is parameter i's value code in example j.
	cols [][]uint32
	// votes[j] is example j's votes: its weight on the side of its outcome
	// and zero on the other. Examples without a vote are never added, so
	// votes[j].s+votes[j].f >= 1.
	votes []tally

	// Build scratch. idx is the tree-wide permutation of example indices:
	// each node owns the window idx[lo:hi] and stably partitions it in
	// place for its children, staging the no-side through tmp.
	idx, tmp []int32
	// vals[i] and rank[i] are parameter i's code→value and code→rank
	// snapshots (pipeline.Space.ValueOrder), taken at the start of each
	// build; every added example's codes were interned before it was
	// added, so they cover them all. byRank[i] inverts rank[i]: it lists
	// parameter i's codes in value order, every row cut from rankBuf.
	vals    [][]pipeline.Value
	rank    [][]uint32
	byRank  [][]uint32
	rankBuf []uint32
	// counts accumulates the votes per value code of the parameter being
	// scanned; bestSplit zeroes each entry again as it reads it.
	counts []tally
}

// tally is a pair of succeed and fail vote counts.
type tally struct{ s, f int }

// NewGrower returns an empty training set for instances of s.
func NewGrower(s *pipeline.Space) *Grower { return newGrower(s, 0) }

// newGrower returns an empty training set with room for n examples, all
// its columns carved from one allocation.
func newGrower(s *pipeline.Space, n int) *Grower {
	g := &Grower{
		space:  s,
		names:  s.Names(),
		cmps:   make([]predicate.Comparator, s.Len()),
		cols:   make([][]uint32, s.Len()),
		vals:   make([][]pipeline.Value, s.Len()),
		rank:   make([][]uint32, s.Len()),
		byRank: make([][]uint32, s.Len()),
	}
	for i := range g.cmps {
		g.cmps[i] = predicate.Eq
		if s.At(i).Kind == pipeline.Ordinal {
			g.cmps[i] = predicate.Le
		}
	}
	if n > 0 {
		flat := make([]uint32, n*s.Len())
		for i := range g.cols {
			g.cols[i] = flat[i*n : i*n : (i+1)*n]
		}
		g.votes = make([]tally, 0, n)
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
	var v tally
	switch ex.Outcome {
	case pipeline.Succeed:
		v.s = ex.weight()
	case pipeline.Fail:
		v.f = ex.weight()
	default:
		return nil
	}
	for i := range g.cols {
		g.cols[i] = append(g.cols[i], ex.Instance.Code(i))
	}
	g.votes = append(g.votes, v)
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
// value-order snapshots and the codes listed by rank, count arrays
// covering every code, and the identity permutation.
func (g *Grower) prepare() {
	entropyOnce.Do(fillEntropyTable)
	codes, total := 0, 0
	for i := range g.cols {
		g.vals[i], g.rank[i] = g.space.ValueOrder(i)
		codes = max(codes, len(g.rank[i]))
		total += len(g.rank[i])
	}
	if cap(g.rankBuf) < total {
		g.rankBuf = make([]uint32, total)
	}
	buf := g.rankBuf[:total]
	for i, rank := range g.rank {
		byRank := buf[:len(rank):len(rank)]
		buf = buf[len(rank):]
		for c, r := range rank {
			byRank[r] = uint32(c)
		}
		g.byRank[i] = byRank
	}
	if len(g.counts) < codes {
		g.counts = make([]tally, codes)
	}
	n := len(g.votes)
	if cap(g.idx) < n {
		g.idx = make([]int32, n, cap(g.votes))
		g.tmp = make([]int32, 0, cap(g.votes))
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
		v := g.votes[j]
		n.NSucceed += v.s
		n.NFail += v.f
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
// accumulates per-code succeed/fail votes, and one walk over the
// parameter's codes in value order (byRank) derives the gain of every "="
// candidate from its code's counts and of every "<=" candidate from the
// prefix sums — O(params × (examples + codes)) per node, instead of the
// naive O(params × values × examples). The walk skips codes no example of
// the window carries (every example carries a vote) and zeroes the counts
// it reads, leaving them clear for the next parameter and node. The gain
// arithmetic is identical to evaluating each candidate against the
// example list, and candidates arrive in value order, so the chosen split
// (including tie-breaks) matches the naive search exactly. A candidate's
// triple is built only when its gain beats or ties the best.
//
//bugdoc:hotpath
func (g *Grower) bestSplit(lo, hi, totS, totF int) (split, bool) {
	window := g.idx[lo:hi]
	// Weighted example mass; equals the window's length for unit weights,
	// so the gain arithmetic (and every tie-break) of a deterministic
	// session is unchanged.
	total := float64(totS + totF)
	baseH := entropy(totS, totF)
	votes, counts := g.votes, g.counts
	var best split
	bestGain := -1.0
	for i, col := range g.cols {
		for _, j := range window {
			v, t := votes[j], &counts[col[j]]
			t.s += v.s
			t.f += v.f
		}
		// Thresholds between consecutive observed ordinal values: testing
		// "<= v" for each observed v covers them all (the largest is
		// rejected by the empty-no-side guard, since nothing exceeds it).
		// Prefix sums in value order give the yes-side counts of each
		// threshold. NaN values — possible only through out-of-domain
		// instances — never satisfy any "<=": NaN ranks last, so it is
		// the largest observed value, never a threshold, and its examples
		// land on every no side, exactly as Holds evaluates them. A
		// categorical candidate "= v" counts v's votes alone.
		name, cmp := g.names[i], g.cmps[i]
		yesS, yesF := 0, 0
		for _, c := range g.byRank[i] {
			t := counts[c]
			if t.s+t.f == 0 {
				continue
			}
			counts[c] = tally{}
			if cmp == predicate.Le {
				yesS += t.s
				yesF += t.f
			} else {
				yesS, yesF = t.s, t.f
			}
			yes, no := yesS+yesF, totS+totF-yesS-yesF
			if yes == 0 || no == 0 {
				continue
			}
			gain := baseH -
				float64(yes)/total*entropy(yesS, yesF) -
				float64(no)/total*entropy(totS-yesS, totF-yesF)
			if gain > bestGain+1e-12 {
				best, bestGain = split{t: predicate.T(name, cmp, g.vals[i][c]), param: i, code: c}, gain
			} else if math.Abs(gain-bestGain) <= 1e-12 && bestGain >= 0 {
				if t := predicate.T(name, cmp, g.vals[i][c]); t.Less(best.t) {
					best, bestGain = split{t: t, param: i, code: c}, gain
				}
			}
		}
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
// failing examples in the leaf. Key is Path's rendering (Path.String()),
// which callers can use to key the suspect without rendering it again.
type Suspect struct {
	Path    predicate.Conjunction
	Support int
	Key     string
}

// Suspects extracts all pure-fail paths, shortest first (ties broken by
// higher support, then lexicographically by Key) — the order in which the
// Debugging Decision Trees algorithm tests them, since shorter paths make
// more concise root causes. Each path is canonical and rendered once.
func (n *Node) Suspects() []Suspect {
	var out []Suspect
	var path predicate.Conjunction // the triples from the root to the node walked
	var walk func(node *Node)
	walk = func(node *Node) {
		if node.IsLeaf() {
			if node.PureFail() {
				c := path.Canonical() // a copy: path is reused
				out = append(out, Suspect{Path: c, Support: node.NFail, Key: c.String()})
			}
			return
		}
		path = append(path, node.Split)
		walk(node.Yes)
		path[len(path)-1] = node.Split.Negated()
		walk(node.No)
		path = path[:len(path)-1]
	}
	walk(n)
	slices.SortFunc(out, func(a, b Suspect) int {
		if len(a.Path) != len(b.Path) {
			return len(a.Path) - len(b.Path)
		}
		if a.Support != b.Support {
			return b.Support - a.Support
		}
		return strings.Compare(a.Key, b.Key)
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
