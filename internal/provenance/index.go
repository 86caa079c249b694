package provenance

import (
	"fmt"

	"repro/internal/pipeline"
)

// This file holds the store's index maintenance: staging and committing
// writes and the identity index. Every write — an Add or an AddBatch, of
// an executor round, a history or a replay batch — sets its outcome bits
// and postings in one pass, indexRangeLocked. Every function here runs
// with the store lock held.

// posMap is the identity index over incrementally added records: instance
// hash to log position. It holds no pointers and no copy of any instance;
// every hit is confirmed against the record at that position, so two
// instances that share a 64-bit hash both index — the first under first,
// the later ones, in position order, under more.
type posMap struct {
	first map[uint64]int32
	more  map[uint64][]int32 // nil until the first hash collision
}

func newPosMap(n int) posMap {
	return posMap{first: make(map[uint64]int32, n)}
}

// get returns the position of in among recs, the records the map indexes.
func (m *posMap) get(in pipeline.Instance, recs []Record) (int32, bool) {
	h := in.Hash()
	pos, ok := m.first[h]
	if !ok {
		return 0, false
	}
	if recs[pos].Instance.Equal(in) {
		return pos, true
	}
	for _, pos := range m.more[h] {
		if recs[pos].Instance.Equal(in) {
			return pos, true
		}
	}
	return 0, false
}

// put indexes pos, the position of an instance hashing to h that the map
// does not hold yet.
func (m *posMap) put(h uint64, pos int32) {
	if _, ok := m.first[h]; !ok {
		m.first[h] = pos
		return
	}
	if m.more == nil {
		m.more = make(map[uint64][]int32)
	}
	m.more[h] = append(m.more[h], pos)
}

// dropNewest removes the position put most recently under h.
func (m *posMap) dropNewest(h uint64) {
	more := m.more[h]
	switch len(more) {
	case 0:
		delete(m.first, h)
	case 1:
		delete(m.more, h)
	default:
		m.more[h] = more[:len(more)-1]
	}
}

// stageLocked appends a record for in to the log and the identity index.
// A staged record is not committed: its outcome and posting indices wait
// for commitStagedLocked, and no reader sees it before then, because the
// caller holds the write lock throughout. The caller has validated in and
// out and probed that in is neither recorded nor staged.
func (st *Store) stageLocked(in pipeline.Instance, out pipeline.Outcome, source string) {
	pos := int32(len(st.recs))
	st.byKey.put(in.Hash(), pos)
	st.recs = append(st.recs, Record{Seq: int(pos), Instance: in, Outcome: out, Source: source})
}

// unstageLocked drops the records staged past log position from, newest
// first, so the identity index forgets each under its hash in turn.
func (st *Store) unstageLocked(from int) {
	for pos := len(st.recs) - 1; pos >= from; pos-- {
		st.byKey.dropNewest(st.recs[pos].Instance.Hash())
	}
	clear(st.recs[from:])
	st.recs = st.recs[:from]
}

// commitStagedLocked commits the records staged past log position from:
// it hands them to the sink in appends of at most historyBatch records,
// then sets the outcome and posting indices of every appended record in
// one pass. A failed append unstages its records and every one staged
// after them. It returns how many records committed.
func (st *Store) commitStagedLocked(from int) (int, error) {
	var err error
	to := len(st.recs)
	for end := from; st.sink != nil && end < to; end += historyBatch {
		if err = st.sink.Append(st.recs[end:min(end+historyBatch, to)]); err != nil {
			st.unstageLocked(end)
			to, err = end, fmt.Errorf("provenance: sink: %w", err)
			break
		}
	}
	st.indexRangeLocked(from, to)
	return to - from, err
}

// indexRangeLocked sets the positional indices — the outcome bitsets and
// the per-(parameter, code) postings — of the records at log positions
// [from, to), one write's worth. It is the single home of the
// posting-growth rule: a bitset the write touches grows once, to the
// write's last word, at least doubling its capacity when it reallocates,
// so a bulk write allocates each touched bitset at most once and a
// one-record write reallocates one only as often as appending did.
func (st *Store) indexRangeLocked(from, to int) {
	words := (to + 63) >> 6
	p := st.space.Len()
	for pos := from; pos < to; pos++ {
		r := &st.recs[pos]
		w, bit := pos>>6, uint64(1)<<(uint(pos)&63)
		switch r.Outcome {
		case pipeline.Succeed:
			st.succBits = st.succBits.grow(words)
			st.succBits[w] |= bit
		case pipeline.Fail:
			st.failBits = st.failBits.grow(words)
			st.failBits[w] |= bit
			// OutcomeInconclusive joins neither bitset: a tie carries no
			// evidence, so bitset algebra sees the record only through the
			// postings (and Lookup still memoizes it).
		}
		for i := 0; i < p; i++ {
			c := int(r.Instance.Code(i))
			row := st.posting[i]
			if c >= len(row) {
				row = append(row, make([]bitset, c+1-len(row))...)
				st.posting[i] = row
			}
			if len(row[c]) < words {
				row[c] = row[c].grow(words)
			}
			row[c][w] |= bit
		}
	}
}
