package provenance

import (
	"fmt"
	"slices"
	"strings"
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

// TestLoadTrialVoteInTrialOrder pins replay's one vote rule: a vote loads
// only as the instance's next trial. A repeat, a gap and a disagreement
// each fail with an error naming the instance, the trial read and the
// trial expected, and load nothing.
func TestLoadTrialVoteInTrialOrder(t *testing.T) {
	s := testSpace(t)
	st := NewStore(s)
	st.SetTrialPolicy(trialPolicy())
	in := pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Cat("y"))
	refused := func(trial int, out pipeline.Outcome, want int) {
		t.Helper()
		before := st.TrialVotes(in)
		err := st.LoadTrialVote(in, trial, out, "t")
		if err == nil {
			t.Fatalf("LoadTrialVote(trial %d, %v) with %d votes loaded succeeded", trial, out, want)
		}
		for _, part := range []string{in.String(), fmt.Sprintf("trial %d", trial), fmt.Sprintf("want trial %d", want)} {
			if !strings.Contains(err.Error(), part) {
				t.Fatalf("LoadTrialVote error %q does not name %q", err, part)
			}
		}
		if after := st.TrialVotes(in); !slices.Equal(after, before) {
			t.Fatalf("refused vote changed the ledger from %v to %v", before, after)
		}
	}

	refused(1, pipeline.Fail, 0) // a gap before any vote
	if st.trialStateLocked(in, false) != nil {
		t.Fatal("a refused first vote opened a ledger")
	}
	if err := st.LoadTrialVote(in, 0, pipeline.Fail, "t"); err != nil {
		t.Fatal(err)
	}
	refused(0, pipeline.Fail, 1)    // a repeat, agreeing
	refused(0, pipeline.Succeed, 1) // a repeat, disagreeing
	refused(2, pipeline.Fail, 1)    // a gap
	for trial := 1; trial < 3; trial++ {
		if err := st.LoadTrialVote(in, trial, pipeline.Fail, "t"); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.TrialCount(in); got != 3 {
		t.Fatalf("TrialCount = %d, want 3", got)
	}
	// All three failing votes present: the policy resolves.
	if out, done := st.TrialOutcome(in); !done || out != pipeline.Fail {
		t.Fatalf("TrialOutcome over replayed quorum = %v, %v", out, done)
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
