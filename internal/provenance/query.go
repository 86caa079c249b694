package provenance

import (
	"repro/internal/pipeline"
	"repro/internal/predicate"
)

// This file holds the store's read side: snapshots and the history queries
// the BugDoc algorithms run. Every query holds the store's read lock over
// the indices it reads, so it answers over exactly the committed log.

// Snapshot is a point-in-time, read-only view of a store's log. Because the
// log is append-only and records are immutable, a snapshot is just the log
// prefix at capture time — taking one copies nothing and later Adds never
// disturb it.
type Snapshot struct {
	recs []Record
}

// Snapshot captures the current log as a read-only view, without copying.
func (st *Store) Snapshot() Snapshot {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return Snapshot{recs: st.recs[:len(st.recs):len(st.recs)]}
}

// Len returns the number of records in the snapshot.
func (sn Snapshot) Len() int { return len(sn.recs) }

// At returns the i-th record in execution order.
func (sn Snapshot) At(i int) Record { return sn.recs[i] }

// Records returns the snapshot's records in execution order. The slice may
// be shared with the store's log; callers must not modify it.
func (sn Snapshot) Records() []Record { return sn.recs }

// Records returns a copy of the log in execution order. Bulk read-only
// consumers should prefer Snapshot, which does not copy.
func (st *Store) Records() []Record {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]Record, len(st.recs))
	copy(out, st.recs)
	return out
}

// Outcomes counts succeeding and failing records.
func (st *Store) Outcomes() (succeed, fail int) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.succBits.count(), st.failBits.count()
}

// byOutcome returns the instances with the given outcome in execution
// order, read off the outcome's bitset.
func (st *Store) byOutcome(out pipeline.Outcome) []pipeline.Instance {
	st.mu.RLock()
	defer st.mu.RUnlock()
	set := st.succBits
	if out == pipeline.Fail {
		set = st.failBits
	}
	var res []pipeline.Instance
	set.forEach(func(pos int) bool {
		res = append(res, st.recs[pos].Instance)
		return true
	})
	return res
}

// Failing returns the failing instances in execution order.
func (st *Store) Failing() []pipeline.Instance { return st.byOutcome(pipeline.Fail) }

// Succeeding returns the succeeding instances in execution order.
func (st *Store) Succeeding() []pipeline.Instance { return st.byOutcome(pipeline.Succeed) }

// FirstFailing returns the earliest failing instance, the natural CP_f for
// the Shortcut algorithms.
func (st *Store) FirstFailing() (pipeline.Instance, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	pos, ok := st.failBits.first()
	if !ok {
		return pipeline.Instance{}, false
	}
	return st.recs[pos].Instance, true
}

// MutuallyDisjointSucceeding greedily selects up to k succeeding instances
// that are disjoint from ref and pairwise disjoint, in execution order
// (the CP_G set of the Stacked Shortcut algorithm). When fewer than k fully
// disjoint instances exist it pads with the most-different remaining
// succeeding instances, earliest first on ties, reflecting the paper's
// "mutually disjoint if possible". A ref from a different space selects
// nothing: codes are interned per space, so cross-space difference counts
// are not comparable, and indexing another space's shorter code vector
// would panic.
//
// The greedy pass is bitset algebra: the candidates are the succeeding
// records minus ref's postings, each pick is the lowest remaining bit (the
// earliest such run), and a pick clears its own postings from the
// candidates. The query allocates the candidate mask and the result, never
// a copy of the succeeding instances.
func (st *Store) MutuallyDisjointSucceeding(ref pipeline.Instance, k int) []pipeline.Instance {
	if ref.Space() != st.space || k <= 0 {
		return nil
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	mask := st.succBits.clone()
	st.clearPostingsLocked(mask, ref)
	var chosen []pipeline.Instance
	for len(chosen) < k {
		pos, ok := mask.first()
		if !ok {
			break
		}
		in := st.recs[pos].Instance
		chosen = append(chosen, in)
		st.clearPostingsLocked(mask, in)
	}
	if len(chosen) == k {
		return chosen
	}
	// Pad with the most-different succeeding instances not yet chosen. The
	// greedy pass ran the mask empty; it now marks the chosen positions.
	taken := mask
	for _, in := range chosen {
		pos, _ := st.byKey.get(in, st.recs)
		taken[pos>>6] |= 1 << (uint(pos) & 63)
	}
	for len(chosen) < k {
		best, bestDiff := -1, -1
		st.succBits.forEach(func(pos int) bool {
			if taken[pos>>6]&(1<<(uint(pos)&63)) == 0 {
				if d := st.recs[pos].Instance.DiffCount(ref); d > bestDiff {
					best, bestDiff = pos, d
				}
			}
			return true
		})
		if best < 0 {
			break
		}
		taken[best>>6] |= 1 << (uint(best) & 63)
		chosen = append(chosen, st.recs[best].Instance)
	}
	return chosen
}

// clearPostingsLocked clears from mask every record sharing a value with
// in on some parameter, leaving the records disjoint from in. The caller
// holds the read lock.
func (st *Store) clearPostingsLocked(mask bitset, in pipeline.Instance) {
	for i := 0; i < st.space.Len(); i++ {
		if c := int(in.Code(i)); c < len(st.posting[i]) {
			mask.andNotWith(st.posting[i][c])
		}
	}
}

// tripleBitsLocked returns the records satisfying t as a bitset: the union
// of the posting lists of every interned value of t's parameter that
// satisfies the comparison. Only O(distinct values) Holds evaluations run,
// never O(records). ok=false means no record can satisfy t (unknown
// parameter), matching Triple.Satisfied on unknown parameters. The caller
// holds the read lock.
func (st *Store) tripleBitsLocked(t predicate.Triple) (bitset, bool) {
	i, ok := st.space.Index(t.Param)
	if !ok {
		return nil, false
	}
	var mask bitset
	for c, post := range st.posting[i] {
		if len(post) == 0 {
			continue
		}
		if t.Holds(st.space.InternedValue(i, uint32(c))) {
			mask.orWith(post)
		}
	}
	return mask, true
}

// conjunctionBitsLocked returns the records satisfying every triple of c,
// or ok=false when a triple names an unknown parameter. The empty
// conjunction returns a nil mask with ok=true; callers handle it before
// intersecting. The caller holds the read lock.
func (st *Store) conjunctionBitsLocked(c predicate.Conjunction) (mask bitset, ok bool) {
	for j, t := range c {
		tb, ok := st.tripleBitsLocked(t)
		if !ok {
			return nil, false
		}
		if j == 0 {
			mask = tb // tripleBitsLocked returns a fresh bitset; safe to own
		} else {
			mask.andWith(tb)
		}
	}
	return mask, true
}

// AnySucceedingSatisfying returns the earliest succeeding instance whose
// parameter values satisfy the conjunction, if one exists — the Shortcut
// sanity check ("whether any superset of the hypothetical root cause is in
// an already executed successful execution").
func (st *Store) AnySucceedingSatisfying(c predicate.Conjunction) (pipeline.Instance, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	mask := st.succBits // read-only unless replaced by an owned intersection
	if len(c) > 0 {
		sat, ok := st.conjunctionBitsLocked(c)
		if !ok {
			return pipeline.Instance{}, false
		}
		sat.andWith(st.succBits)
		mask = sat
	}
	pos, ok := mask.first()
	if !ok {
		return pipeline.Instance{}, false
	}
	return st.recs[pos].Instance, true
}

// CountSatisfying counts recorded instances satisfying c, split by outcome:
// the satisfying set materializes once and intersects the outcome bitsets
// without copying them.
func (st *Store) CountSatisfying(c predicate.Conjunction) (succeed, fail int) {
	if len(c) == 0 {
		return st.Outcomes()
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	mask, ok := st.conjunctionBitsLocked(c)
	if !ok {
		return 0, 0 // unknown parameter: no record can satisfy c
	}
	return mask.andCount(st.succBits), mask.andCount(st.failBits)
}
