// Package provenance stores the execution history of a pipeline: which
// instances ran, in what order, and how each one evaluated. The BugDoc
// algorithms both read provenance (to find failing instances, disjoint
// successful instances, and counterexamples) and extend it as they execute
// new instances.
//
// The store is an append-only log with columnar indices maintained on
// every write: a map from the instances' precomputed hashes to log
// positions (so Lookup is an allocation-free hash probe confirmed against
// the logged record), per-outcome bitsets, and per-(parameter,
// value-code) posting bitsets. A write — one Add or one AddBatch — sets
// its records' bits in one index pass that grows each bitset it touches
// at most once. Bit positions are log positions, so an outcome bitset
// lists its records in execution order, and it is the store's only
// outcome index. History queries (FirstFailing,
// MutuallyDisjointSucceeding, AnySucceedingSatisfying, CountSatisfying,
// ...) run as bitset algebra instead of whole-log scans, and Snapshot
// exposes a read-only view of the log for bulk consumers.
//
// One read-write lock guards the log and every index. The algorithm
// drivers are sequential — choose a hypothesis, execute one batch, commit
// it, query — so a query never waits on a concurrent write in practice,
// and the one lock gives every query an exact view of a dense log prefix.
//
// The store itself is volatile; durability is delegated to a pluggable
// Sink. A sink's Append runs inside Add and AddBatch, under the store's
// lock and before the records are committed, so a durable sink (the
// segmented write-ahead log in internal/provlog) gives write-ahead
// semantics: no record becomes queryable unless its log append succeeded,
// and rebuilding a store by replaying the log reproduces the indices
// exactly. Add is one Append call of one record, and AddBatch one per
// historyBatch records it adds; a failed Append commits none of its
// records.
package provenance

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/pipeline"
)

// Record is one provenance entry: an executed instance, its evaluation, the
// component that ran it, and its position in the log.
type Record struct {
	Seq      int
	Instance pipeline.Instance
	Outcome  pipeline.Outcome
	Source   string
}

// Sink receives the records of every write at the moment they are
// committed to a store. Append is called with the store's lock held,
// before the records are committed, with one record for Add and up to
// historyBatch records of an AddBatch: if Append fails, none of recs
// commits, so a sink must persist either all of recs or none. Records
// therefore arrive exactly in sequence order, without gaps or
// duplicates, and a sink that persists them (internal/provlog) is a
// write-ahead log of the store. recs is the staged tail of the store's
// own log: Append must neither modify nor retain it.
type Sink interface {
	Append(recs []Record) error
}

// recordableOutcome reports whether an outcome may be committed as a
// record: the two evaluation results, plus OutcomeInconclusive for
// quorum ties under a FlakyPolicy. OutcomeUnknown never commits.
func recordableOutcome(o pipeline.Outcome) bool {
	return o == pipeline.Succeed || o == pipeline.Fail || o == pipeline.OutcomeInconclusive
}

// Store is an append-only, thread-safe provenance log over a single
// parameter space. Duplicate instances are rejected: the evaluation model
// is deterministic (Definition 2), so one record per instance suffices.
//
// mu guards every field below it. Writers hold it exclusively while they
// check for duplicates, assign sequence numbers, hand records to the sink
// and commit them; queries hold it shared, so every query answers over
// exactly the committed log.
type Store struct {
	space *pipeline.Space

	mu   sync.RWMutex
	recs []Record // the committed log, ascending sequence

	// byKey maps instance hashes to log positions, each hit confirmed
	// against st.recs (see posMap).
	byKey posMap

	// Outcome partitions as bitsets over log positions, which list each
	// outcome's records in execution order; posting[i][c] holds the
	// records whose parameter i has value-code c.
	succBits, failBits bitset
	posting            [][]bitset

	// Trial-vote state (flaky-oracle sessions only; see trials.go): maps
	// instance identity to an index into trialRecs, whose entries hold the
	// per-instance vote tallies accumulated across repeated oracle trials.
	// Deterministic sessions never touch either field. trialPolicy is the
	// FlakyPolicy AddTrial/TrialOutcome resolve votes under; the zero value —
	// every deterministic session — is disabled and never resolves.
	trialByKey  *pipeline.InstanceMap[int32]
	trialRecs   []trialState
	trialPolicy pipeline.FlakyPolicy

	sink Sink
}

// NewStore creates an empty store for instances of space s.
func NewStore(s *pipeline.Space) *Store {
	return NewStoreWithCapacity(s, 0)
}

// NewStoreWithCapacity creates an empty store pre-sized for about n
// records, so bulk loaders (log replay, codecs) skip the incremental
// growth of the log, the identity map, and the outcome indices.
func NewStoreWithCapacity(s *pipeline.Space, n int) *Store {
	st := &Store{
		space:   s,
		byKey:   newPosMap(n),
		posting: make([][]bitset, s.Len()),
	}
	if n > 0 {
		st.recs = make([]Record, 0, n)
		st.succBits = make(bitset, 0, n/64+1)
		st.failBits = make(bitset, 0, n/64+1)
	}
	return st
}

// Space returns the parameter space the store records instances of.
func (st *Store) Space() *pipeline.Space { return st.space }

// SetSink attaches a durability sink; every subsequent write appends to it
// before committing to memory. Passing nil detaches the current sink.
// SetSink is not meant to race with Adds: attach the sink before handing
// the store to the executor.
func (st *Store) SetSink(sink Sink) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sink = sink
}

// Add appends a record and updates every index. It fails for instances of
// a different space, for unknown outcomes, for instances already recorded
// (deterministic evaluation makes duplicates meaningless), and when the
// sink's append fails, which leaves the store unchanged.
func (st *Store) Add(in pipeline.Instance, out pipeline.Outcome, source string) error {
	if in.Space() != st.space {
		return fmt.Errorf("provenance: instance belongs to a different space")
	}
	if !recordableOutcome(out) {
		return fmt.Errorf("provenance: cannot record outcome %v", out)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, dup := st.byKey.get(in, st.recs); dup {
		return fmt.Errorf("provenance: instance %v already recorded", in)
	}
	from := len(st.recs)
	st.stageLocked(in, out, source)
	_, err := st.commitStagedLocked(from)
	return err
}

// historyBatch caps the records one sink append carries, so neither a
// sink's frame buffer nor the staged log tail grows with a history. It is
// the batch size log replay (internal/provlog) commits in.
const historyBatch = 8192

// AddBatch records a batch of evaluations — an executor round, a replayed
// log batch, or the history a session starts from — under one lock
// acquisition. Records whose instance is already in the store are
// skipped, so a durable store resumed over an earlier run's log adds only
// what is missing; the others take the next sequence numbers in input
// order (the records' Seq fields are ignored). It returns how many
// records were added.
//
// A batch lists each instance at most once. A repeated instance, a
// foreign instance or an unknown outcome rejects the whole batch before
// anything is written. The staged records reach the sink in appends of
// at most historyBatch records, so a batch of up to historyBatch records
// commits all or nothing, and a longer one that fails returns how many
// records committed before the failed append.
func (st *Store) AddBatch(recs []Record) (added int, err error) {
	for i := range recs {
		if recs[i].Instance.Space() != st.space {
			return 0, fmt.Errorf("provenance: record %d: instance belongs to a different space", i)
		}
		if o := recs[i].Outcome; !recordableOutcome(o) {
			return 0, fmt.Errorf("provenance: record %d: cannot record outcome %v", i, o)
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	from := len(st.recs)
	if from == 0 && cap(st.recs) < len(recs) {
		// An empty store sizes its identity map for the whole batch, so
		// ingesting a history never rehashes it. NewStoreWithCapacity
		// sized the map of a store whose log has room.
		st.byKey = newPosMap(len(recs))
	}
	st.recs = slices.Grow(st.recs, len(recs))
	// The staging probe finds repeats: a hit at or past from is a record
	// of this batch, and skipped marks the log positions of the records
	// this batch already found in the store.
	var skipped bitset
	for i := range recs {
		in := recs[i].Instance
		pos, held := st.byKey.get(in, st.recs)
		if !held {
			st.stageLocked(in, recs[i].Outcome, recs[i].Source)
			continue
		}
		w, bit := pos>>6, uint64(1)<<(uint(pos)&63)
		if int(pos) >= from || skipped != nil && skipped[w]&bit != 0 {
			st.unstageLocked(from)
			return 0, fmt.Errorf("provenance: batch lists instance %v twice (record %d repeats it)", in, i)
		}
		if skipped == nil {
			skipped = make(bitset, (from+63)>>6)
		}
		skipped[w] |= bit
	}
	return st.commitStagedLocked(from)
}

// Lookup returns the recorded outcome for the instance, if any. Hits
// perform no allocations: the probe goes through the identity map,
// followed by an integer code-vector compare.
//
// Lookup has no space guard: the probe only reads, a foreign instance can
// only miss because Equal compares spaces, and the guard's pointer load is
// measurable on the hottest path.
func (st *Store) Lookup(in pipeline.Instance) (pipeline.Outcome, bool) {
	// Manual unlocks, not defer: the memoization hit is the hottest
	// operation in the system and the defer bookkeeping (plus the extra
	// argument spills it forces) is measurable there.
	st.mu.RLock()
	if i, ok := st.byKey.get(in, st.recs); ok {
		out := st.recs[i].Outcome
		st.mu.RUnlock()
		return out, true
	}
	st.mu.RUnlock()
	return pipeline.OutcomeUnknown, false
}

// Len returns the number of records.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.recs)
}
