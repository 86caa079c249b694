package provenance

import (
	"repro/internal/pipeline"
)

// This file holds the store's index maintenance: the per-record commit,
// both identity tiers, and the deferred base-run index. Every function
// here runs with the store lock held, except buildBaseIndex, which reads
// only the immutable base prefix.

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

// baseIndex is the deferred base-run index built off-lock over the
// immutable base prefix: outcome position lists, outcome bitsets, and
// posting bitsets covering positions [0, n) only. installBaseIndexLocked
// merges it with whatever the store indexed incrementally since the load.
type baseIndex struct {
	succ, fail         []int32
	succBits, failBits bitset
	posting            [][]bitset
}

// buildBaseIndex indexes the base prefix without holding the store lock:
// the prefix is immutable once adopted (commits only append behind it), so
// the build races nothing. Only the install needs the write lock, and it
// costs O(index words), not O(records × parameters) — concurrent Lookups
// do not stall behind the first query of a freshly loaded checkpoint.
func (st *Store) buildBaseIndex(base []Record) *baseIndex {
	n := len(base)
	bi := &baseIndex{
		succ:    make([]int32, 0, n),
		fail:    make([]int32, 0, n),
		posting: make([][]bitset, st.space.Len()),
	}
	for pos := 0; pos < n; pos++ {
		r := &base[pos]
		switch r.Outcome {
		case pipeline.Succeed:
			bi.succ = append(bi.succ, int32(pos))
			bi.succBits.set(pos)
		case pipeline.Fail:
			bi.fail = append(bi.fail, int32(pos))
			bi.failBits.set(pos)
		}
		for i := range bi.posting {
			c := int(r.Instance.Code(i))
			for len(bi.posting[i]) <= c {
				bi.posting[i] = append(bi.posting[i], nil)
			}
			bi.posting[i][c].set(pos)
		}
	}
	return bi
}

// installBaseIndexLocked merges an off-lock base index into the live
// indices: base position lists prepend (base positions all precede
// post-load ones), and the positional bitsets — outcome and posting — or
// together word-wise. The caller holds the write lock.
func (st *Store) installBaseIndexLocked(bi *baseIndex) {
	if st.baseUnindexed == 0 {
		return
	}
	st.baseUnindexed = 0
	st.succSeqs = append(bi.succ, st.succSeqs...)
	st.failSeqs = append(bi.fail, st.failSeqs...)
	bi.succBits.orWith(st.succBits)
	st.succBits = bi.succBits
	bi.failBits.orWith(st.failBits)
	st.failBits = bi.failBits
	for i := range bi.posting {
		lp := st.posting[i]
		if len(lp) < len(bi.posting[i]) {
			lp = append(lp, make([]bitset, len(bi.posting[i])-len(lp))...)
		}
		for c, bp := range bi.posting[i] {
			if bp == nil {
				continue
			}
			bp.orWith(lp[c])
			lp[c] = bp
		}
		st.posting[i] = lp
	}
}
