package provenance

import (
	"time"

	"repro/internal/pipeline"
)

// This file holds the store's index maintenance: the per-record commit,
// both identity tiers, and the deferred base-run index. Every function
// here runs with the store lock held.

// commitLocked appends a record to the log (continuing the ascending
// sequence order) and updates every index. The caller holds the write
// lock.
//
//bugdoc:hotpath
func (st *Store) commitLocked(rec Record) {
	pos := int32(len(st.recs))
	st.byKey.Put(rec.Instance, pos)
	st.recs = append(st.recs, rec)
	switch rec.Outcome {
	case pipeline.Succeed:
		st.succSeqs = append(st.succSeqs, pos)
	case pipeline.Fail:
		st.failSeqs = append(st.failSeqs, pos)
	}
	st.indexRecordBitsLocked(int(pos), &rec)
}

// indexRecordBitsLocked sets the positional indices — the outcome bitset
// and the per-(parameter, code) postings — for one record at log position
// pos. It is the single home of the posting-growth rule; the ordered
// position lists are maintained by the callers, which differ in where
// they append.
//
//bugdoc:hotpath
func (st *Store) indexRecordBitsLocked(pos int, r *Record) {
	switch r.Outcome {
	case pipeline.Succeed:
		st.succBits.set(pos)
	case pipeline.Fail:
		st.failBits.set(pos)
		// OutcomeInconclusive joins neither bitset: a tie carries no
		// evidence, so bitset algebra sees the record only through the
		// postings (and Lookup still memoizes it).
	}
	for i := 0; i < st.space.Len(); i++ {
		c := int(r.Instance.Code(i))
		for len(st.posting[i]) <= c {
			st.posting[i] = append(st.posting[i], nil)
		}
		st.posting[i][c].set(pos)
	}
}

// lookupPosLocked resolves an instance to its log position through both
// identity tiers: the hash map over incrementally added records, then a
// binary search of the base runs adopted from a checkpoint.
//
//bugdoc:hotpath
func (st *Store) lookupPosLocked(in pipeline.Instance) (int32, bool) {
	if i, ok := st.byKey.Get(in); ok {
		return i, true
	}
	return st.baseLookupLocked(in)
}

// baseRun is one adopted checkpoint tier: a hash-ascending column plus the
// log position of each row's record.
type baseRun struct {
	hash []uint64
	pos  []int32
}

// baseLookupLocked probes the sorted base runs, newest tier first, and
// returns the first hit — the recency-ordered fan-out that makes a
// multi-tier checkpoint load behave exactly like the single merged run.
// Kept out of the map-hit path: Lookup's memoization hit is the hottest
// operation in the system and pays only a length check for the base tiers.
//
//bugdoc:hotpath
func (st *Store) baseLookupLocked(in pipeline.Instance) (int32, bool) {
	h := in.Hash()
	for ri := range st.baseRuns {
		run := &st.baseRuns[ri]
		lo, hi := 0, len(run.hash)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if run.hash[mid] < h {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		for ; lo < len(run.hash) && run.hash[lo] == h; lo++ {
			pos := run.pos[lo]
			if st.recs[pos].Instance.Equal(in) {
				return pos, true
			}
		}
	}
	return 0, false
}

// indexBaseLocked builds the deferred base-run index in place, if one is
// pending: it indexes every adopted base record and puts the base
// positions in front of the outcome position lists. Records committed
// after the load are already indexed behind them — base positions all
// precede post-load ones, and the bitsets are positional. The caller holds
// the write lock.
func (st *Store) indexBaseLocked() {
	n := st.baseUnindexed
	if n == 0 {
		return
	}
	var start time.Time
	if st.met != nil {
		start = time.Now()
	}
	succ := make([]int32, 0, n+len(st.succSeqs))
	fail := make([]int32, 0, n+len(st.failSeqs))
	for pos := 0; pos < n; pos++ {
		r := &st.recs[pos]
		switch r.Outcome {
		case pipeline.Succeed:
			succ = append(succ, int32(pos))
		case pipeline.Fail:
			fail = append(fail, int32(pos))
		}
		st.indexRecordBitsLocked(pos, r)
	}
	st.succSeqs = append(succ, st.succSeqs...)
	st.failSeqs = append(fail, st.failSeqs...)
	st.baseUnindexed = 0
	if st.met != nil {
		st.met.indexBuilt(time.Since(start))
	}
}
