package provenance

import (
	"fmt"

	"repro/internal/pipeline"
)

// TrialSink is an optional Sink extension for flaky-oracle sessions: a
// sink that also persists individual trial votes. AppendTrial is called
// with the store's write lock held, before the vote is counted in memory,
// and must not return until the vote is durable — write-ahead semantics
// for votes, mirroring Append for records. Trial votes carry no sequence
// number (they are idempotent, keyed by instance and trial index), so the
// sink may interleave them freely with record appends in its stream.
type TrialSink interface {
	AppendTrial(in pipeline.Instance, trial int, out pipeline.Outcome, source string) error
}

// TrialVote is one recorded oracle trial of an instance: the trial's raw
// outcome (always Succeed or Fail — resolution happens over the tallies)
// and the component that ran it.
type TrialVote struct {
	Outcome pipeline.Outcome
	Source  string
}

// TrialRecord is one instance's accumulated trial votes, as returned by
// TrialVotesAll.
type TrialRecord struct {
	Instance pipeline.Instance
	Votes    []TrialVote
}

// TrialResult reports the vote tallies after an AddTrial call and the
// resolution they imply under the store's trial policy.
type TrialResult struct {
	// Trial is the recorded vote's index, or -1 when the vote was
	// discarded because a resolution already held.
	Trial int
	// Succ and Fail are the instance's vote tallies including this vote
	// (or excluding it when Discarded).
	Succ, Fail int
	// Resolved reports whether the tallies now settle the outcome.
	Resolved bool
	// Outcome is the resolved outcome; valid only when Resolved.
	Outcome pipeline.Outcome
	// Discarded is set when the vote was refused: either the tallies had
	// already resolved (a racing trial crossed the quorum first) or the
	// instance's record is already committed. Refusing late votes is what
	// keeps resolved outcomes stable — no trial can flip a resolution.
	Discarded bool
}

// trialState is one instance's in-memory vote ledger: the durable votes
// in trial order.
type trialState struct {
	in    pipeline.Instance
	votes []TrialVote
}

// tally counts the succeed and fail votes. Holes (see
// LoadTrialVote) carry OutcomeUnknown and count as nothing.
func (ts *trialState) tally() (succ, fail int) {
	for _, v := range ts.votes {
		switch v.Outcome {
		case pipeline.Succeed:
			succ++
		case pipeline.Fail:
			fail++
		}
	}
	return succ, fail
}

// trialStateLocked returns the vote ledger for in, creating it when create
// is set. The caller holds the write lock (read lock suffices when create
// is false and only reads follow).
func (st *Store) trialStateLocked(in pipeline.Instance, create bool) *trialState {
	if st.trialByKey != nil {
		if i, ok := st.trialByKey.Get(in); ok {
			return &st.trialRecs[i]
		}
	}
	if !create {
		return nil
	}
	if st.trialByKey == nil {
		st.trialByKey = pipeline.NewInstanceMap[int32](0)
	}
	st.trialByKey.Put(in, int32(len(st.trialRecs)))
	st.trialRecs = append(st.trialRecs, trialState{in: in})
	return &st.trialRecs[len(st.trialRecs)-1]
}

// SetTrialPolicy installs the FlakyPolicy that AddTrial and TrialOutcome
// resolve votes under. Set it before handing the store to the executor;
// it is not meant to change while trials are in flight. Deterministic
// sessions never call it and the zero (disabled) policy never resolves.
func (st *Store) SetTrialPolicy(p pipeline.FlakyPolicy) {
	st.trialPolicy = p
}

// TrialPolicy returns the installed FlakyPolicy (zero when none).
func (st *Store) TrialPolicy() pipeline.FlakyPolicy { return st.trialPolicy }

// TrialOutcome reports whether the instance's outcome is already settled:
// by its committed record, or by recorded votes that resolve under the
// policy. A resumed session asks before each trial, so it never pays for
// a trial its replayed votes already settle. An instance of another space
// reports OutcomeUnknown as settled, so the caller's commit path (which
// re-validates the space) surfaces the error.
func (st *Store) TrialOutcome(in pipeline.Instance) (pipeline.Outcome, bool) {
	if in.Space() != st.space {
		return pipeline.OutcomeUnknown, true
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	if pos, ok := st.byKey.get(in, st.recs); ok {
		return st.recs[pos].Outcome, true
	}
	ts := st.trialStateLocked(in, false)
	if ts == nil {
		return pipeline.OutcomeUnknown, false
	}
	return st.trialPolicy.Resolve(ts.tally())
}

// AddTrial records one oracle trial's raw outcome as a vote. Votes are
// durable before they count: with a TrialSink attached the vote's WAL
// write (and its fsync, when the log syncs) completes under the store
// lock, so a vote visible to any reader survives a crash. A vote arriving
// after the tallies already resolve — or after the instance's record
// committed — is discarded, never persisted, and never counted: the
// resolution invariant is that recorded votes are exactly the pre-quorum
// trials, so re-resolving the final tallies always reproduces the
// committed outcome.
func (st *Store) AddTrial(in pipeline.Instance, out pipeline.Outcome, source string) (TrialResult, error) {
	if in.Space() != st.space {
		return TrialResult{}, fmt.Errorf("provenance: instance belongs to a different space")
	}
	if out != pipeline.Succeed && out != pipeline.Fail {
		return TrialResult{}, fmt.Errorf("provenance: cannot record trial outcome %v", out)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if pos, ok := st.byKey.get(in, st.recs); ok {
		return TrialResult{Trial: -1, Discarded: true, Resolved: true, Outcome: st.recs[pos].Outcome}, nil
	}
	ts := st.trialStateLocked(in, true)
	succ, fail := ts.tally()
	if res, done := st.trialPolicy.Resolve(succ, fail); done {
		return TrialResult{Trial: -1, Succ: succ, Fail: fail, Discarded: true, Resolved: true, Outcome: res}, nil
	}
	idx := len(ts.votes)
	if tsink, ok := st.sink.(TrialSink); ok {
		if err := tsink.AppendTrial(in, idx, out, source); err != nil {
			return TrialResult{}, fmt.Errorf("provenance: trial sink: %w", err)
		}
	}
	ts.votes = append(ts.votes, TrialVote{Outcome: out, Source: source})
	if out == pipeline.Succeed {
		succ++
	} else {
		fail++
	}
	res, done := st.trialPolicy.Resolve(succ, fail)
	return TrialResult{Trial: idx, Succ: succ, Fail: fail, Resolved: done, Outcome: res}, nil
}

// LoadTrialVote applies one replayed trial vote without touching the
// sink. It is idempotent: a vote at an index already loaded must agree
// with the loaded vote and is otherwise ignored. A vote past the next free
// index leaves OutcomeUnknown holes that later calls fill. Log replay
// (internal/provlog) never leaves one: it holds a vote read ahead of its
// predecessors aside until they arrive, and fails a replay that ends with
// votes still held.
func (st *Store) LoadTrialVote(in pipeline.Instance, trial int, out pipeline.Outcome, source string) error {
	if in.Space() != st.space {
		return fmt.Errorf("provenance: trial vote instance belongs to a different space")
	}
	if out != pipeline.Succeed && out != pipeline.Fail {
		return fmt.Errorf("provenance: cannot load trial outcome %v", out)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	ts := st.trialStateLocked(in, true)
	for trial >= len(ts.votes) {
		ts.votes = append(ts.votes, TrialVote{})
	}
	if prev := ts.votes[trial].Outcome; prev != pipeline.OutcomeUnknown {
		if prev != out {
			return fmt.Errorf("provenance: replayed trial %d of %v disagrees: %v vs %v",
				trial, in, prev, out)
		}
		return nil
	}
	ts.votes[trial] = TrialVote{Outcome: out, Source: source}
	return nil
}

// TrialVotes returns a copy of the instance's recorded votes in trial
// order (nil when the instance never ran a trial).
func (st *Store) TrialVotes(in pipeline.Instance) []TrialVote {
	if in.Space() != st.space {
		return nil
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	ts := st.trialStateLocked(in, false)
	if ts == nil || len(ts.votes) == 0 {
		return nil
	}
	out := make([]TrialVote, len(ts.votes))
	copy(out, ts.votes)
	return out
}

// TrialCount returns how many votes the instance has accumulated.
func (st *Store) TrialCount(in pipeline.Instance) int {
	if in.Space() != st.space {
		return 0
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	ts := st.trialStateLocked(in, false)
	if ts == nil {
		return 0
	}
	return len(ts.votes)
}

// TrialMargin returns the instance's absolute vote margin |succ - fail|,
// the confidence weight flaky sessions hand to the decision tree. It is 0
// for instances without votes (deterministic records), which the tree
// treats as weight 1.
func (st *Store) TrialMargin(in pipeline.Instance) int {
	if in.Space() != st.space {
		return 0
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	ts := st.trialStateLocked(in, false)
	if ts == nil {
		return 0
	}
	succ, fail := ts.tally()
	if succ > fail {
		return succ - fail
	}
	return fail - succ
}

// TrialVotesAll snapshots every instance's vote ledger, in no particular
// order, so a caller can inspect the whole ledger at once — for example,
// to check that a replayed ledger has no holes.
func (st *Store) TrialVotesAll() []TrialRecord {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var all []TrialRecord
	for j := range st.trialRecs {
		ts := &st.trialRecs[j]
		if len(ts.votes) == 0 {
			continue
		}
		votes := make([]TrialVote, len(ts.votes))
		copy(votes, ts.votes)
		all = append(all, TrialRecord{Instance: ts.in, Votes: votes})
	}
	return all
}
