// Package forest implements random-forest regression over mixed
// ordinal/categorical pipeline parameters: bagged CART trees with random
// feature subsets and variance estimates across trees. It is the surrogate
// model substrate for the SMAC baseline (sequential model-based algorithm
// configuration uses random-forest surrogates; Hutter et al., LION 2011).
package forest

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

	"repro/internal/pipeline"
)

// Config controls forest training; zero values take defaults.
type Config struct {
	// Trees is the ensemble size (default 16).
	Trees int
	// MinLeaf is the minimum examples per leaf (default 2).
	MinLeaf int
	// MaxDepth bounds tree depth (default 16).
	MaxDepth int
	// Rand drives bootstrap and feature sampling; deterministic default.
	Rand *rand.Rand
}

func (c Config) withDefaults() Config {
	if c.Trees <= 0 {
		c.Trees = 16
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 2
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 16
	}
	if c.Rand == nil {
		c.Rand = rand.New(rand.NewSource(1))
	}
	return c
}

// Forest is a trained ensemble.
type Forest struct {
	space *pipeline.Space
	trees []*node
}

type node struct {
	// Split: param index and test. For ordinal parameters the test is
	// value <= threshold; for categorical, the value's code == code, which
	// holds exactly when the value is the one interned as code.
	param     int
	threshold float64
	code      uint32
	ordinal   bool

	yes, no *node
	mean    float64
}

// Train fits a forest to instances xs with targets ys.
func Train(s *pipeline.Space, xs []pipeline.Instance, ys []float64, cfg Config) *Forest {
	cfg = cfg.withDefaults()
	f := &Forest{space: s}
	if len(xs) == 0 {
		return f
	}
	mtry := int(math.Ceil(math.Sqrt(float64(s.Len()))))
	sc := &scratch{}
	for t := 0; t < cfg.Trees; t++ {
		idx := make([]int, len(xs))
		for i := range idx {
			idx[i] = cfg.Rand.Intn(len(xs))
		}
		f.trees = append(f.trees, grow(s, xs, ys, idx, cfg, mtry, 0, sc))
	}
	return f
}

// scratch is per-Train reusable working memory: candidate tests run over
// interned value codes (the space's value ranks instead of float/string
// comparisons), and the per-candidate partitions reuse one pair of index
// buffers.
type scratch struct {
	yes, no  []int
	distinct []uint32
}

func grow(s *pipeline.Space, xs []pipeline.Instance, ys []float64, idx []int, cfg Config, mtry, depth int, sc *scratch) *node {
	n := &node{mean: mean(ys, idx)}
	if len(idx) < 2*cfg.MinLeaf || depth >= cfg.MaxDepth || pure(ys, idx) {
		return n
	}
	// Random feature subset.
	feats := cfg.Rand.Perm(s.Len())
	if len(feats) > mtry {
		feats = feats[:mtry]
	}
	bestVar := math.Inf(1)
	found := false
	for _, pi := range feats {
		p := s.At(pi)
		vals, rank := s.ValueOrder(pi)
		codes := distinctCodes(xs, idx, pi, rank, sc)
		if len(codes) < 2 {
			continue
		}
		// The codes are in value order, so "value <= vals[c]" becomes the
		// integer test rank <= rank[c] and "value == vals[c]" becomes code
		// equality — the same membership test applies at integer-compare
		// cost. NaN (possible only through out-of-domain instances) ranks
		// after every number, so it fails every finite threshold as
		// Num() <= thr does; as a threshold itself it holds the top rank,
		// leaves the no side empty and scores +Inf, so it is never chosen.
		if p.Kind == pipeline.Ordinal {
			for _, c := range codes {
				rk := rank[c]
				v := splitVariance(xs, ys, idx, func(in pipeline.Instance) bool {
					return rank[in.Code(pi)] <= rk
				}, cfg.MinLeaf, sc)
				if v < bestVar {
					bestVar, found = v, true
					n.param, n.threshold, n.ordinal = pi, vals[c].Num(), true
				}
			}
		} else {
			for _, c := range codes {
				cc := c
				v := splitVariance(xs, ys, idx, func(in pipeline.Instance) bool {
					return in.Code(pi) == cc
				}, cfg.MinLeaf, sc)
				if v < bestVar {
					bestVar, found = v, true
					n.param, n.code, n.ordinal = pi, c, false
				}
			}
		}
	}
	if !found {
		return n
	}
	var yesIdx, noIdx []int
	for _, i := range idx {
		if n.test(xs[i]) {
			yesIdx = append(yesIdx, i)
		} else {
			noIdx = append(noIdx, i)
		}
	}
	if len(yesIdx) == 0 || len(noIdx) == 0 {
		return n
	}
	n.yes = grow(s, xs, ys, yesIdx, cfg, mtry, depth+1, sc)
	n.no = grow(s, xs, ys, noIdx, cfg, mtry, depth+1, sc)
	return n
}

func (n *node) test(in pipeline.Instance) bool {
	if n.ordinal {
		return in.Value(n.param).Num() <= n.threshold
	}
	return in.Code(n.param) == n.code
}

func (n *node) predict(in pipeline.Instance) float64 {
	for n.yes != nil && n.no != nil {
		if n.test(in) {
			n = n.yes
		} else {
			n = n.no
		}
	}
	return n.mean
}

// Predict returns the ensemble mean and variance for one instance. An
// empty forest predicts (0, 0), as does an instance from a different
// space: tree tests index parameters by this space's positions, so a
// foreign instance could panic or silently misread.
func (f *Forest) Predict(in pipeline.Instance) (mu, variance float64) {
	if len(f.trees) == 0 || in.Space() != f.space {
		return 0, 0
	}
	preds := make([]float64, len(f.trees))
	for i, t := range f.trees {
		preds[i] = t.predict(in)
		mu += preds[i]
	}
	mu /= float64(len(f.trees))
	for _, p := range preds {
		variance += (p - mu) * (p - mu)
	}
	variance /= float64(len(f.trees))
	return mu, variance
}

// Len returns the number of trees.
func (f *Forest) Len() int { return len(f.trees) }

func mean(ys []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	s := 0.0
	for _, i := range idx {
		s += ys[i]
	}
	return s / float64(len(idx))
}

func pure(ys []float64, idx []int) bool {
	for k := 1; k < len(idx); k++ {
		if ys[idx[k]] != ys[idx[0]] {
			return false
		}
	}
	return true
}

// distinctCodes returns the distinct value codes of parameter pi among
// xs[idx], sorted by value order (rank is the space's code→rank table for
// pi). The dedup runs over dense codes instead of hashing Value structs.
func distinctCodes(xs []pipeline.Instance, idx []int, pi int, rank []uint32, sc *scratch) []uint32 {
	seen := make([]bool, len(rank))
	sc.distinct = sc.distinct[:0]
	for _, i := range idx {
		c := xs[i].Code(pi)
		if !seen[c] {
			seen[c] = true
			sc.distinct = append(sc.distinct, c)
		}
	}
	slices.SortFunc(sc.distinct, func(a, b uint32) int { return cmp.Compare(rank[a], rank[b]) })
	return sc.distinct
}

// splitVariance is the weighted child variance of a candidate split, or
// +Inf when a side falls under minLeaf. The yes/no partitions reuse the
// scratch buffers; membership and summation order match the original
// per-candidate partition exactly.
func splitVariance(xs []pipeline.Instance, ys []float64, idx []int, test func(pipeline.Instance) bool, minLeaf int, sc *scratch) float64 {
	yes, no := sc.yes[:0], sc.no[:0]
	for _, i := range idx {
		if test(xs[i]) {
			yes = append(yes, i)
		} else {
			no = append(no, i)
		}
	}
	sc.yes, sc.no = yes[:0], no[:0]
	if len(yes) < minLeaf || len(no) < minLeaf {
		return math.Inf(1)
	}
	return sse(ys, yes) + sse(ys, no)
}

func sse(ys []float64, idx []int) float64 {
	m := mean(ys, idx)
	s := 0.0
	for _, i := range idx {
		d := ys[i] - m
		s += d * d
	}
	return s
}
