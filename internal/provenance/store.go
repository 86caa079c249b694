// Package provenance stores the execution history of a pipeline: which
// instances ran, in what order, and how each one evaluated. The BugDoc
// algorithms both read provenance (to find failing instances, disjoint
// successful instances, and counterexamples) and extend it as they execute
// new instances.
//
// The store is an append-only log with columnar indices maintained on
// every write: a map from the instances' precomputed hashes to log
// positions (so Lookup is an allocation-free hash probe confirmed against
// the logged record), per-outcome sequence lists and bitsets, and
// per-(parameter, value-code) posting bitsets. A write — one Add, one
// AddBatch, one AddHistory chunk — sets its records' bits in one index
// pass that grows each bitset it touches at most once. History queries
// (DisjointSucceeding, MutuallyDisjointSucceeding, AnySucceedingSatisfying,
// CountSatisfying, ...) run as bitset algebra instead of whole-log scans,
// and Snapshot exposes a read-only view of the log for bulk consumers.
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
// exactly. Each write is one Append call — one record for Add, the whole
// deduplicated batch for AddBatch, up to historyBatch records for
// AddHistory — and a failed Append leaves the store unchanged.
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
// before the records are committed, with one record for Add and the whole
// deduplicated batch for AddBatch: if Append fails, the write fails and
// the store is unchanged, so a sink must persist either all of recs or
// none. Records therefore arrive exactly in sequence order, without gaps
// or duplicates, and a sink that persists them (internal/provlog) is a
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

// Entry is one record-to-be of AddBatch: an instance, its evaluation, and
// the component that ran it. Sequence numbers are assigned by the store.
type Entry struct {
	Instance pipeline.Instance
	Outcome  pipeline.Outcome
	Source   string
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

	// Outcome partitions: position lists preserve execution order for
	// O(matches) enumeration; bitsets drive the boolean-algebra queries.
	// posting[i][c] holds the records whose parameter i has value-code c.
	succSeqs, failSeqs []int32
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
		st.succSeqs = make([]int32, 0, n)
		st.failSeqs = make([]int32, 0, n)
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
	from := len(st.recs)
	if !st.stageLocked(in, out, source) {
		return fmt.Errorf("provenance: instance %v already recorded", in)
	}
	_, err := st.commitStagedLocked(from)
	return err
}

// AddBatch records a batch of evaluations under one lock acquisition and
// with one sink append for the whole batch. Entries whose instance is
// already recorded (or duplicated within the batch) are skipped, not
// errors: batch callers dedupe against memoized history up front, but
// races with concurrent evaluations of the same instance are benign and
// the earlier record is authoritative. It returns how many entries were
// added.
//
// Sequence numbers are assigned to the surviving entries in input order.
// Validation errors (wrong space, unknown outcome) reject the whole batch
// before anything is appended, and a sink failure commits nothing.
func (st *Store) AddBatch(entries []Entry) (added int, err error) {
	for i := range entries {
		if entries[i].Instance.Space() != st.space {
			return 0, fmt.Errorf("provenance: entry %d: instance belongs to a different space", i)
		}
		if o := entries[i].Outcome; !recordableOutcome(o) {
			return 0, fmt.Errorf("provenance: entry %d: cannot record outcome %v", i, o)
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	from := len(st.recs)
	st.recs = slices.Grow(st.recs, len(entries))
	for i := range entries {
		st.stageLocked(entries[i].Instance, entries[i].Outcome, entries[i].Source)
	}
	return st.commitStagedLocked(from)
}

// historyBatch caps the records one AddHistory write carries, so neither
// a sink's frame buffer nor the staged log tail grows with the history.
// It is the batch size log replay (internal/provlog) commits in.
const historyBatch = 8192

// AddHistory records previously-run instances — the history a debugging
// session starts from — as writes of up to historyBatch records each,
// staged straight from recs: each write is one sink append, as for
// AddBatch. Records whose instance is already recorded are skipped, so a
// durable store resumed over an earlier run's log adds only what is
// missing; the records' Seq fields are ignored. It returns how many
// records were added.
//
// Unlike a batch, a history lists each instance at most once: a repeated
// instance is an error, as are the records AddBatch rejects, and both
// are checked over the whole history before anything is written.
func (st *Store) AddHistory(recs []Record) (added int, err error) {
	seen := newPosMap(len(recs))
	for i := range recs {
		in := recs[i].Instance
		if in.Space() != st.space {
			return 0, fmt.Errorf("provenance: history record %d: instance belongs to a different space", i)
		}
		if o := recs[i].Outcome; !recordableOutcome(o) {
			return 0, fmt.Errorf("provenance: history record %d: cannot record outcome %v", i, o)
		}
		if j, dup := seen.get(in, recs); dup {
			return 0, fmt.Errorf("provenance: history lists instance %v twice (records %d and %d)", in, j, i)
		}
		seen.put(in.Hash(), int32(i))
	}
	for len(recs) > 0 {
		chunk := recs[:min(len(recs), historyBatch)]
		n, err := st.addChunk(chunk, len(recs))
		recs = recs[len(chunk):]
		added += n
		if err != nil {
			return added, err
		}
	}
	return added, nil
}

// addChunk commits one AddHistory write: it stages the validated records
// of chunk that are not yet recorded and commits them with one sink
// append. left counts the history's records from chunk on; an empty store
// sizes its identity map for all of them first, so ingesting a history
// never rehashes the map.
func (st *Store) addChunk(chunk []Record, left int) (int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	from := len(st.recs)
	if from == 0 {
		st.byKey = newPosMap(left)
	}
	st.recs = slices.Grow(st.recs, len(chunk))
	for i := range chunk {
		st.stageLocked(chunk[i].Instance, chunk[i].Outcome, chunk[i].Source)
	}
	return st.commitStagedLocked(from)
}

// Lookup returns the recorded outcome for the instance, if any. Hits
// perform no allocations: the probe goes through the identity map,
// followed by an integer code-vector compare.
//
//buglint:ignore crossspace read-only hash+Equal probe: a foreign instance can only miss (Equal compares spaces), and the guard's pointer load is measurable on the hottest path
//bugdoc:hotpath
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
