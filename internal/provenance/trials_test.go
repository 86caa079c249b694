package provenance

import (
	"fmt"
	"testing"

	"repro/internal/pipeline"
)

func trialPolicy() pipeline.FlakyPolicy {
	return pipeline.FlakyPolicy{MinTrials: 3, MaxTrials: 5, Quorum: 3}
}

func TestTrialQuorumLifecycle(t *testing.T) {
	s := testSpace(t)
	st := NewStore(s)
	st.SetTrialPolicy(trialPolicy())
	in := pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Cat("x"))

	if out, done := st.TrialOutcome(in); done {
		t.Fatalf("TrialOutcome before any vote = %v, settled", out)
	}
	// Votes take consecutive trial indices; the third agreeing vote
	// resolves.
	for i := 0; i < 2; i++ {
		res, err := st.AddTrial(in, pipeline.Fail, "t")
		if err != nil {
			t.Fatal(err)
		}
		if res.Resolved || res.Discarded || res.Trial != i {
			t.Fatalf("vote %d = %+v, want unresolved vote at trial %d", i, res, i)
		}
		if out, done := st.TrialOutcome(in); done {
			t.Fatalf("TrialOutcome after %d votes = %v, settled", i+1, out)
		}
	}
	res, err := st.AddTrial(in, pipeline.Fail, "t")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resolved || res.Outcome != pipeline.Fail || res.Succ != 0 || res.Fail != 3 {
		t.Fatalf("third vote = %+v, want resolution to fail at 0-3", res)
	}

	// Post-resolution: TrialOutcome reports the resolution, late votes are
	// discarded so the resolution can never flip.
	if out, done := st.TrialOutcome(in); !done || out != pipeline.Fail {
		t.Fatalf("post-resolution TrialOutcome = %v, %v", out, done)
	}
	late, err := st.AddTrial(in, pipeline.Succeed, "t")
	if err != nil {
		t.Fatal(err)
	}
	if !late.Discarded || !late.Resolved || late.Outcome != pipeline.Fail || late.Trial != -1 {
		t.Fatalf("late vote = %+v, want discarded with the standing resolution", late)
	}
	if got := st.TrialCount(in); got != 3 {
		t.Fatalf("TrialCount = %d after a discarded vote, want 3", got)
	}
	if got := st.TrialMargin(in); got != 3 {
		t.Fatalf("TrialMargin = %d, want 3", got)
	}

	// Committing the record and re-resolving the recorded tallies must
	// agree — the invariant the -race stress test leans on.
	if err := st.Add(in, pipeline.Fail, "t"); err != nil {
		t.Fatal(err)
	}
	if out, done := st.TrialOutcome(in); !done || out != pipeline.Fail {
		t.Fatalf("TrialOutcome over the committed record = %v, %v", out, done)
	}
	succ, fail := 0, 0
	for _, v := range st.TrialVotes(in) {
		if v.Outcome == pipeline.Succeed {
			succ++
		} else {
			fail++
		}
	}
	if out, done := st.TrialPolicy().Resolve(succ, fail); !done || out != pipeline.Fail {
		t.Fatalf("re-resolving recorded tallies (%d, %d) = %v, %v", succ, fail, out, done)
	}
}

func TestTrialVoteRejectsNonVerdicts(t *testing.T) {
	s := testSpace(t)
	st := NewStore(s)
	st.SetTrialPolicy(trialPolicy())
	in := pipeline.MustInstance(s, pipeline.Ord(3), pipeline.Cat("z"))
	for _, out := range []pipeline.Outcome{pipeline.OutcomeUnknown, pipeline.OutcomeInconclusive} {
		if _, err := st.AddTrial(in, out, "t"); err == nil {
			t.Errorf("AddTrial accepted %v", out)
		}
		if err := st.LoadTrialVote(in, 0, out, "t"); err == nil {
			t.Errorf("LoadTrialVote accepted %v", out)
		}
	}
}

func TestLoadTrialVoteHolesAndIdempotence(t *testing.T) {
	s := testSpace(t)
	st := NewStore(s)
	st.SetTrialPolicy(trialPolicy())
	in := pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Cat("y"))

	// A high-index vote may arrive first (checkpoint re-emission trailing
	// a live append); the gap is padded with holes that count as nothing.
	if err := st.LoadTrialVote(in, 2, pipeline.Fail, "t"); err != nil {
		t.Fatal(err)
	}
	if got := st.TrialCount(in); got != 3 {
		t.Fatalf("TrialCount = %d, want 3 (two holes + one vote)", got)
	}
	if got := st.TrialMargin(in); got != 1 {
		t.Fatalf("TrialMargin = %d, want 1 (holes carry no vote)", got)
	}
	// Filling the holes, duplicating a vote, and disagreeing:
	if err := st.LoadTrialVote(in, 0, pipeline.Fail, "t"); err != nil {
		t.Fatal(err)
	}
	if err := st.LoadTrialVote(in, 2, pipeline.Fail, "t"); err != nil {
		t.Fatalf("idempotent duplicate rejected: %v", err)
	}
	if err := st.LoadTrialVote(in, 2, pipeline.Succeed, "t"); err == nil {
		t.Fatal("disagreeing duplicate accepted")
	}
	if err := st.LoadTrialVote(in, 1, pipeline.Fail, "t"); err != nil {
		t.Fatal(err)
	}
	// All three failing votes now present: the policy resolves.
	if out, done := st.TrialOutcome(in); !done || out != pipeline.Fail {
		t.Fatalf("TrialOutcome over replayed quorum = %v, %v", out, done)
	}
}

func TestTrialVotesAllSnapshots(t *testing.T) {
	s := testSpace(t)
	st := NewStore(s)
	st.SetTrialPolicy(trialPolicy())
	want := map[uint64]int{}
	for a := 1; a <= 3; a++ {
		in := pipeline.MustInstance(s, pipeline.Ord(float64(a)), pipeline.Cat("x"))
		for k := 0; k < a; k++ {
			if _, err := st.AddTrial(in, pipeline.Fail, fmt.Sprintf("s%d", k)); err != nil {
				t.Fatal(err)
			}
		}
		want[in.Hash()] = a
	}
	all := st.TrialVotesAll()
	if len(all) != len(want) {
		t.Fatalf("TrialVotesAll returned %d ledgers, want %d", len(all), len(want))
	}
	for _, tr := range all {
		if want[tr.Instance.Hash()] != len(tr.Votes) {
			t.Fatalf("instance %v has %d votes, want %d", tr.Instance, len(tr.Votes), want[tr.Instance.Hash()])
		}
	}
}

func TestInconclusiveRecordJoinsNeitherBitset(t *testing.T) {
	s := testSpace(t)
	st := NewStore(s)
	inc := pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Cat("x"))
	fl := pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Cat("x"))
	ok := pipeline.MustInstance(s, pipeline.Ord(3), pipeline.Cat("x"))
	if err := st.Add(inc, pipeline.OutcomeInconclusive, "t"); err != nil {
		t.Fatalf("inconclusive record rejected: %v", err)
	}
	if err := st.Add(fl, pipeline.Fail, "t"); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(ok, pipeline.Succeed, "t"); err != nil {
		t.Fatal(err)
	}
	if out, found := st.Lookup(inc); !found || out != pipeline.OutcomeInconclusive {
		t.Fatalf("Lookup(inconclusive) = %v, %v", out, found)
	}
	succ, fail := st.Outcomes()
	if succ != 1 || fail != 1 {
		t.Fatalf("Outcomes = %d, %d; inconclusive must count as neither", succ, fail)
	}
	if st.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (inconclusive is still memoized)", st.Len())
	}
}
