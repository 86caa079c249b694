// Package provenance stores the execution history of a pipeline: which
// instances ran, in what order, and how each one evaluated. The BugDoc
// algorithms both read provenance (to find failing instances, disjoint
// successful instances, and counterexamples) and extend it as they execute
// new instances.
//
// The store is an append-only log with columnar indices maintained on Add:
// a hash map over the instances' interned code vectors (so Lookup is an
// allocation-free hash probe), per-outcome sequence lists and bitsets, and
// per-(parameter, value-code) posting bitsets. History queries
// (DisjointSucceeding, AnySucceedingSatisfying, CountSatisfying, ...) run
// as bitset intersections instead of whole-log scans, and Snapshot exposes
// a read-only view of the log for bulk consumers.
//
// One read-write lock guards the log and every index. The algorithm
// drivers are sequential — choose a hypothesis, execute one batch, commit
// it, query — so a query never waits on a concurrent write in practice,
// and the one lock gives every query an exact view of a dense log prefix.
//
// Identity is two-tiered, LSM-style: records added one by one live in the
// hash map, while a checkpoint bulk-load (LoadSortedRuns) adopts the
// hash-sorted checkpoint runs wholesale, serving identity probes by binary
// search and deferring the outcome and posting indices to the first query
// that needs them — so resuming a huge session builds no per-record index
// at all. Either way the store behaves identically; the deferral is never
// observable.
//
// The store itself is volatile; durability is delegated to a pluggable
// Sink. A sink's Append runs inside Add, under the store's lock and before
// the in-memory indices are updated, so a durable sink (the segmented
// write-ahead log in internal/provlog) gives write-ahead semantics: no
// record becomes queryable unless its log append succeeded, and rebuilding
// a store by replaying the log reproduces the indices exactly.
//
// Sinks that also implement StagedSink split the append into a staging
// phase (under the lock, cheap: frames are assembled into the sink's
// pending commit group) and a durability wait (outside the lock), so
// concurrent Adds overlap in the expensive part — the sink's write+fsync —
// instead of serializing it under the store lock. Records in flight are
// tracked until durable and committed to the indices strictly in sequence
// order; write-ahead semantics are preserved (a record is never queryable
// before it is durable). AddBatch amortizes further: one lock acquisition,
// one staged multi-record append, and one durability wait for a whole
// hypothesis set.
package provenance

import (
	"fmt"
	"sync"
	"time"

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

// Sink receives every record at the moment it is committed to a store.
// Append is called with the store's lock held, before the record enters
// the in-memory log and indices: if Append fails, the Add fails and the
// store is unchanged. Appends therefore arrive exactly in sequence order,
// without duplicates, and a sink that persists them (internal/provlog) is
// a write-ahead log of the store. Sinks that also implement StagedSink
// take the staged path instead: Append is bypassed in favor of Stage plus
// an out-of-lock durability wait.
type Sink interface {
	Append(Record) error
}

// StagedSink is an optional Sink extension for group durability. Stage is
// called under the store's lock with a batch of records in sequence order;
// it must buffer them cheaply and return a wait function. The store
// releases its lock and then calls wait, which blocks until the staged
// records are durable (typically coalesced with concurrently staged
// records into one write and one fsync — see internal/provlog's
// group-commit). A non-nil error from wait means none of the staged records
// may be treated as durable; the store drops them without committing.
type StagedSink interface {
	Sink
	Stage(recs []Record) (wait func() error, err error)
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

// stagedRec tracks one record between staging and commit. done is closed
// when the record leaves the staged set (committed or dropped), so a
// concurrent Add of the same instance can wait for the outcome instead of
// racing it.
type stagedRec struct {
	rec     Record
	done    chan struct{}
	durable bool
	failed  bool
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

	// byKey maps instance identity to log position (hash-bucketed with
	// Equal confirmation; see pipeline.InstanceMap). Records adopted as
	// base runs are not in byKey: identity probes for them binary-search
	// the sorted runs instead, LSM-style, so a checkpoint load never pays
	// to build a hash index.
	byKey *pipeline.InstanceMap[int32]

	// The base runs: the hash-sorted checkpoint tiers, newest tier first.
	// Each run's hash column is ascending and pos[i] is the log position
	// of the record whose instance hashes to hash[i] (ties ordered by
	// seq). An identity probe binary-searches the runs newest-first, so
	// when tiers could ever shadow one another the most recent write wins —
	// though a store-fed log holds each instance exactly once, so in
	// practice every probe hits at most one run. baseUnindexed is the
	// length of the base prefix (all adopted records, across every run)
	// whose outcome and posting indices have not been built yet; the first
	// query that needs them triggers the deferred build. The memoization
	// path (Lookup) never does.
	baseRuns      []baseRun
	baseUnindexed int

	// Outcome partitions: position lists preserve execution order for
	// O(matches) enumeration; bitsets drive the boolean-algebra queries.
	// posting[i][c] holds the records whose parameter i has value-code c.
	succSeqs, failSeqs []int32
	succBits, failBits bitset
	posting            [][]bitset

	// seq is the next sequence number to assign: committed records plus
	// records in flight on the staged path.
	seq int

	// Staged-commit state (StagedSink path): records whose sink append has
	// been staged but whose durability is still pending, in sequence
	// order. stagedByH buckets them by instance hash for the duplicate
	// check. dropTail is set when a staged record is dropped without
	// committing (its flush failed): later staged records would leave a
	// sequence gap, so they drop too.
	staged    []*stagedRec
	stagedByH map[uint64][]*stagedRec
	dropTail  bool

	// Trial-vote state (flaky-oracle sessions only; see trials.go): maps
	// instance identity to an index into trialRecs, whose entries hold the
	// per-instance vote tallies accumulated across repeated oracle trials.
	// Deterministic sessions never touch either field. trialPolicy is the
	// FlakyPolicy AddTrial/ClaimTrial resolve votes under; the zero value —
	// every deterministic session — is disabled and never resolves.
	trialByKey  *pipeline.InstanceMap[int32]
	trialRecs   []trialState
	trialPolicy pipeline.FlakyPolicy

	sink     Sink
	met      *Metrics  // nil when uninstrumented; see SetMetrics
	stageErr error     // set on staged-sink failure; poisons writes (reads stay valid)
	stageOne [1]Record // single-record staging scratch, used under mu

	// indexMu single-flights the off-lock deferred base-index build. It is
	// acquired before mu, never after.
	indexMu sync.Mutex
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
		byKey:   pipeline.NewInstanceMap[int32](n),
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

// SetSink attaches a durability sink; every subsequent Add appends to it
// before committing to memory. Passing nil detaches the current sink.
// SetSink is not meant to race with Adds: attach the sink before handing
// the store to the executor. Detaching a sink does not lift a write poison
// left by a staged-sink failure — the burned sequence numbers make later
// writes uncommittable regardless of the sink.
func (st *Store) SetSink(sink Sink) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sink = sink
}

// poisonLocked marks the store write-poisoned after a staged-sink failure:
// the failed records' sequence numbers are burned (later staged records may
// already hold higher ones), so no later record could ever commit at its
// assigned position. Reads and already-committed records stay valid. The
// caller holds mu.
func (st *Store) poisonLocked(cause error) {
	if st.stageErr == nil {
		st.stageErr = fmt.Errorf("provenance: store write-poisoned by sink failure: %w", cause)
	}
}

// Add appends a record and updates every index. It fails for instances of
// a different space, for unknown outcomes, for instances already recorded
// (deterministic evaluation makes duplicates meaningless), and — on every
// sink configuration, including none — for stores write-poisoned by an
// earlier staged-sink failure.
//
// With a StagedSink attached, the durability wait happens outside the
// lock, so concurrent Adds coalesce into the sink's commit groups instead
// of serializing one fsync each under the lock.
func (st *Store) Add(in pipeline.Instance, out pipeline.Outcome, source string) error {
	if in.Space() != st.space {
		return fmt.Errorf("provenance: instance belongs to a different space")
	}
	if !recordableOutcome(out) {
		return fmt.Errorf("provenance: cannot record outcome %v", out)
	}
	st.mu.Lock()
	if _, dup := st.lookupPosLocked(in); dup {
		st.mu.Unlock()
		return fmt.Errorf("provenance: instance %v already recorded", in)
	}
	ss, staged := st.sink.(StagedSink)
	if staged {
		if e := st.stagedLookupLocked(in); e != nil {
			// The same instance is in flight on another goroutine; wait for
			// its fate so the caller's follow-up Lookup sees the committed
			// record. (e's fields are settled before done closes, so the
			// unlocked reads below are safe.)
			done := e.done
			st.mu.Unlock()
			<-done
			if e.failed {
				st.mu.RLock()
				err := st.stageErr
				st.mu.RUnlock()
				if err == nil {
					err = fmt.Errorf("provenance: concurrent write of %v failed", in)
				}
				return err
			}
			return fmt.Errorf("provenance: instance %v already recorded", in)
		}
	}
	if err := st.stageErr; err != nil {
		st.mu.Unlock()
		return err
	}
	rec := Record{Seq: st.seq, Instance: in, Outcome: out, Source: source}
	if !staged {
		// Write-ahead: a plain sink's append must succeed before the record
		// is queryable.
		if st.sink != nil {
			if err := st.sink.Append(rec); err != nil {
				st.mu.Unlock()
				return fmt.Errorf("provenance: sink: %w", err)
			}
		}
		st.seq++
		st.commitLocked(rec)
		st.mu.Unlock()
		return nil
	}
	st.stageOne[0] = rec
	return st.commitStagedUnlock(ss, st.stageOne[:1])
}

// commitStagedUnlock stages recs — survivors of the duplicate checks, with
// sequence numbers continuing st.seq — with the sink, waits for their
// durability outside the lock, and commits them in sequence order. A
// failed wait drops them and write-poisons the store. The caller holds
// mu; it is released on return.
func (st *Store) commitStagedUnlock(ss StagedSink, recs []Record) error {
	wait, err := ss.Stage(recs)
	if err != nil {
		st.mu.Unlock()
		return fmt.Errorf("provenance: sink: %w", err)
	}
	st.seq += len(recs)
	es := make([]*stagedRec, len(recs))
	for i, rec := range recs {
		es[i] = &stagedRec{rec: rec, done: make(chan struct{})}
		st.stagePushLocked(es[i])
	}
	st.mu.Unlock()

	werr := wait()

	st.mu.Lock()
	if werr != nil {
		st.poisonLocked(werr)
	}
	for _, e := range es {
		e.durable, e.failed = werr == nil, werr != nil
	}
	st.drainStagedLocked()
	st.mu.Unlock()
	if werr != nil {
		return fmt.Errorf("provenance: sink: %w", werr)
	}
	return nil
}

// AddBatch records a batch of evaluations under one lock acquisition and —
// when the sink supports staging — with one multi-record sink append and
// one durability wait for the whole batch. Entries whose instance is
// already recorded (or duplicated within the batch, or in flight on
// another goroutine) are skipped, not errors: batch callers dedupe against
// memoized history up front, but races with concurrent evaluations of the
// same instance are benign and the earlier record is authoritative. An
// entry skipped as in flight counts on its winner: should the winner's
// commit window then fail, that record is lost — but every such failure
// write-poisons the store, so the session is already terminal and no later
// write can silently diverge. It returns how many entries were added.
//
// Sequence numbers are assigned to the surviving entries in input order.
// Validation errors (wrong space, unknown outcome) reject the whole batch
// before anything is staged, as does a store write-poisoned by an earlier
// staged-sink failure. A sink failure on the staged path commits nothing;
// on the plain-Sink path entries are appended one by one and a failure
// stops the batch, with the already-appended prefix committed — added
// reports exactly how many.
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
	if err := st.stageErr; err != nil {
		st.mu.Unlock()
		return 0, err
	}
	ss, staged := st.sink.(StagedSink)
	if !staged {
		// Volatile or plain-sink store: one pass, commits dedupe the batch
		// as they land. This is the default store's hot batch path
		// (BenchmarkStoreAddBatch).
		defer st.mu.Unlock()
		for i := range entries {
			in := entries[i].Instance
			if _, dup := st.lookupPosLocked(in); dup {
				continue
			}
			if st.stagedLookupLocked(in) != nil {
				continue
			}
			rec := Record{Seq: st.seq, Instance: in, Outcome: entries[i].Outcome, Source: entries[i].Source}
			if st.sink != nil {
				if err := st.sink.Append(rec); err != nil {
					return added, fmt.Errorf("provenance: sink: %w", err)
				}
			}
			st.seq++
			st.commitLocked(rec)
			added++
		}
		return added, nil
	}

	// Staged path: nothing commits until the batch is durable, so
	// duplicates within the batch are caught by a batch-local set.
	seen := pipeline.NewInstanceMap[struct{}](len(entries))
	recs := make([]Record, 0, len(entries))
	for i := range entries {
		in := entries[i].Instance
		if _, dup := st.lookupPosLocked(in); dup {
			continue
		}
		if st.stagedLookupLocked(in) != nil {
			continue
		}
		if !seen.Put(in, struct{}{}) {
			continue
		}
		recs = append(recs, Record{
			Seq: st.seq + len(recs), Instance: in,
			Outcome: entries[i].Outcome, Source: entries[i].Source,
		})
	}
	if len(recs) == 0 {
		st.mu.Unlock()
		return 0, nil
	}
	if err := st.commitStagedUnlock(ss, recs); err != nil {
		return 0, err
	}
	return len(recs), nil
}

// loadValidateLocked shares the up-front checks of the two bulk loaders.
// The caller holds mu.
func (st *Store) loadValidateLocked(recs []Record) error {
	if st.sink != nil {
		return fmt.Errorf("provenance: bulk load on a store with a sink attached")
	}
	if st.stageErr != nil {
		return st.stageErr
	}
	if len(st.staged) > 0 {
		return fmt.Errorf("provenance: bulk load with staged writes in flight")
	}
	for i := range recs {
		r := &recs[i]
		if r.Instance.Space() != st.space {
			return fmt.Errorf("provenance: record %d: instance belongs to a different space", i)
		}
		if !recordableOutcome(r.Outcome) {
			return fmt.Errorf("provenance: record %d: cannot record outcome %v", i, r.Outcome)
		}
		if r.Seq != st.seq+i {
			return fmt.Errorf("provenance: record %d has sequence %d, want %d", i, r.Seq, st.seq+i)
		}
	}
	return nil
}

// LoadRecords bulk-commits a batch of already-durable records into the
// store without touching the sink. The records must continue the log
// exactly: sequence numbers dense from Len() in slice order, instances of
// the store's space, no duplicates, known outcomes. Loading is equivalent
// to Add-ing the records in order (the indices come out identical), minus
// the sink staging.
//
// LoadRecords refuses stores with a sink attached (the records would
// silently skip durability) or with staged writes in flight. On error the
// store may be partially loaded and must be discarded; bulk loaders open a
// fresh store per attempt.
func (st *Store) LoadRecords(recs []Record) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.loadValidateLocked(recs); err != nil {
		return err
	}
	for i := range recs {
		if _, dup := st.lookupPosLocked(recs[i].Instance); dup {
			return fmt.Errorf("provenance: record %d: instance %v already recorded", i, recs[i].Instance)
		}
		st.seq++
		st.commitLocked(recs[i])
	}
	return nil
}

// SortedRun is one hash-sorted checkpoint tier handed to LoadSortedRuns:
// Hashes ascending, and Seqs[i] the global sequence (log position) of the
// record hashing to Hashes[i] (ties in sequence order). The two columns
// are parallel and the store takes ownership of both.
type SortedRun struct {
	Hashes []uint64
	Seqs   []int32
}

// LoadSortedRun adopts one decoded checkpoint run as the store's base
// tier. It is LoadSortedRuns with a single tier; see there for the full
// contract.
func (st *Store) LoadSortedRun(recs []Record, hashes []uint64, seqs []int32) error {
	return st.LoadSortedRuns(recs, []SortedRun{{Hashes: hashes, Seqs: seqs}})
}

// LoadSortedRuns adopts a set of decoded checkpoint tiers as the store's
// base runs: recs in sequence order (dense from 0 — the store must be
// empty), plus one SortedRun per tier, newest tier first, whose sequence
// sets partition [0, len(recs)). Unlike LoadRecords, no hash index is
// built — identity probes binary-search each tier's sorted hash column,
// newest first, so the most recent tier wins a probe (recency dedup) —
// and the outcome and posting indices are deferred to the first query that
// needs them, so loading checkpoints of any size costs O(records)
// decode-adjacent work and the memoization path is ready immediately.
// Records added after the load go to the hash-map tier and index
// incrementally as usual; the deferred base build merges in front of them
// (base sequences all precede post-load ones, and bitsets are positional).
//
// The store adopts the tiers' columns wholesale, copying nothing, and
// takes ownership of every slice. The caller vouches that the hashes are
// the records' instance hashes (internal/provlog verifies them against the
// CRC-protected rows); sortedness and sequence coverage are verified here,
// and duplicate instances within a tier surface as a verification error
// since equal instances hash adjacently.
func (st *Store) LoadSortedRuns(recs []Record, runs []SortedRun) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.loadValidateLocked(recs); err != nil {
		return err
	}
	if len(st.recs) != 0 || len(st.baseRuns) != 0 {
		return fmt.Errorf("provenance: LoadSortedRuns into a non-empty store")
	}
	total := 0
	for _, run := range runs {
		total += len(run.Hashes)
	}
	if total != len(recs) {
		return fmt.Errorf("provenance: sorted runs hold %d rows for %d records", total, len(recs))
	}
	// Each run must be sorted and duplicate-free, and across runs the
	// sequence columns must cover every record exactly once.
	covered := make([]uint64, (len(recs)+63)/64)
	for ri, run := range runs {
		if len(run.Seqs) != len(run.Hashes) {
			return fmt.Errorf("provenance: sorted run %d has %d hashes and %d seqs", ri, len(run.Hashes), len(run.Seqs))
		}
		for i := range run.Hashes {
			if i > 0 && run.Hashes[i] < run.Hashes[i-1] {
				return fmt.Errorf("provenance: sorted run %d out of order at row %d", ri, i)
			}
			s := run.Seqs[i]
			if int(s) >= len(recs) || s < 0 {
				return fmt.Errorf("provenance: sorted run %d row %d names seq %d of %d", ri, i, s, len(recs))
			}
			if covered[s>>6]&(1<<(uint(s)&63)) != 0 {
				return fmt.Errorf("provenance: sorted runs name seq %d twice", s)
			}
			covered[s>>6] |= 1 << (uint(s) & 63)
			if i > 0 && run.Hashes[i] == run.Hashes[i-1] &&
				recs[run.Seqs[i]].Instance.Equal(recs[run.Seqs[i-1]].Instance) {
				return fmt.Errorf("provenance: sorted run %d holds instance %v twice", ri, recs[run.Seqs[i]].Instance)
			}
		}
	}
	st.recs = recs
	st.baseRuns = make([]baseRun, 0, len(runs))
	for _, run := range runs {
		if len(run.Hashes) == 0 {
			continue
		}
		// Log position equals global sequence, so the tier's seq column is
		// the pos column, adopted as-is.
		st.baseRuns = append(st.baseRuns, baseRun{hash: run.Hashes, pos: run.Seqs})
	}
	st.baseUnindexed = len(recs)
	st.seq = len(recs)
	return nil
}

// ensureIndexed builds the deferred base-run index, if one is pending. The
// build itself runs without the store lock — the base prefix is immutable
// once adopted — serialized by indexMu, and installs under a brief write
// lock (see buildBaseIndex). Concurrent callers past the first either wait
// on indexMu for the same build or see baseUnindexed already zero and
// return immediately.
func (st *Store) ensureIndexed() {
	st.mu.RLock()
	n := st.baseUnindexed
	var base []Record
	if n > 0 {
		base = st.recs[:n:n]
	}
	st.mu.RUnlock()
	if n == 0 {
		return
	}
	st.indexMu.Lock()
	defer st.indexMu.Unlock()
	st.mu.RLock()
	pending := st.baseUnindexed > 0
	st.mu.RUnlock()
	if !pending {
		return
	}
	start := time.Time{}
	if st.met != nil {
		start = time.Now()
	}
	bi := st.buildBaseIndex(base)
	st.mu.Lock()
	st.installBaseIndexLocked(bi)
	st.mu.Unlock()
	if st.met != nil {
		st.met.indexBuilt(time.Since(start))
	}
}

// Lookup returns the recorded outcome for the instance, if any. Hits
// perform no allocations: the probe goes through the identity map (and,
// for checkpoint-loaded stores, a binary search of the sorted base runs),
// followed by an integer code-vector compare.
//
//buglint:ignore crossspace read-only hash+Equal probe: a foreign instance can only miss (Equal compares spaces), and the guard's pointer load is measurable on the hottest path
//bugdoc:hotpath
func (st *Store) Lookup(in pipeline.Instance) (pipeline.Outcome, bool) {
	// Manual unlocks, not defer: the memoization hit is the hottest
	// operation in the system and the defer bookkeeping (plus the extra
	// argument spills it forces) is measurable there.
	st.mu.RLock()
	// The map probe is open-coded ahead of the base-run fallback so the
	// common hit costs exactly what it did before the base tier existed.
	if i, ok := st.byKey.Get(in); ok {
		out := st.recs[i].Outcome
		st.mu.RUnlock()
		return out, true
	}
	if len(st.baseRuns) > 0 {
		if i, ok := st.baseLookupLocked(in); ok {
			out := st.recs[i].Outcome
			st.mu.RUnlock()
			return out, true
		}
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
