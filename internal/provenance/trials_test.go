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

	// Claims hand out slot indices up to MaxTrials.
	for i := 0; i < 3; i++ {
		c := st.ClaimTrial(in)
		if !c.Granted || c.Trial != i {
			t.Fatalf("claim %d = %+v, want granted slot %d", i, c, i)
		}
	}
	// Votes arrive; the third agreeing vote resolves.
	for i := 0; i < 2; i++ {
		res, err := st.AddTrial(in, pipeline.Fail, "t")
		if err != nil {
			t.Fatal(err)
		}
		if res.Resolved || res.Discarded || res.Trial != i {
			t.Fatalf("vote %d = %+v, want unresolved vote at slot %d", i, res, i)
		}
	}
	res, err := st.AddTrial(in, pipeline.Fail, "t")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resolved || res.Outcome != pipeline.Fail || res.Succ != 0 || res.Fail != 3 {
		t.Fatalf("third vote = %+v, want resolution to fail at 0-3", res)
	}

	// Post-resolution: claims report the resolution, late votes are
	// discarded so the resolution can never flip.
	if c := st.ClaimTrial(in); !c.Resolved || c.Outcome != pipeline.Fail {
		t.Fatalf("post-resolution claim = %+v", c)
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

func TestTrialClaimCapAndRelease(t *testing.T) {
	s := testSpace(t)
	st := NewStore(s)
	st.SetTrialPolicy(pipeline.FlakyPolicy{MinTrials: 1, MaxTrials: 2, Quorum: 1})
	in := pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Cat("y"))

	if c := st.ClaimTrial(in); !c.Granted {
		t.Fatalf("first claim = %+v", c)
	}
	if c := st.ClaimTrial(in); !c.Granted {
		t.Fatalf("second claim = %+v", c)
	}
	blocked := st.ClaimTrial(in)
	if blocked.Granted || blocked.Resolved || blocked.Wait == nil {
		t.Fatalf("claim past MaxTrials = %+v, want a wait channel", blocked)
	}
	select {
	case <-blocked.Wait:
		t.Fatal("wait channel fired before any state change")
	default:
	}
	st.ReleaseTrial(in)
	select {
	case <-blocked.Wait:
	default:
		t.Fatal("release did not wake the waiter")
	}
	if c := st.ClaimTrial(in); !c.Granted {
		t.Fatalf("claim after release = %+v", c)
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
	if c := st.ClaimTrial(in); !c.Resolved || c.Outcome != pipeline.Fail {
		t.Fatalf("claim over replayed quorum = %+v", c)
	}
	// Claims resume at the replayed vote count, so a resumed session can
	// spend at most MaxTrials - replayed further trials.
	st2 := NewStore(s)
	st2.SetTrialPolicy(pipeline.FlakyPolicy{MinTrials: 1, MaxTrials: 4, Quorum: 4})
	if err := st2.LoadTrialVote(in, 0, pipeline.Fail, "t"); err != nil {
		t.Fatal(err)
	}
	if err := st2.LoadTrialVote(in, 1, pipeline.Succeed, "t"); err != nil {
		t.Fatal(err)
	}
	grants := 0
	for {
		c := st2.ClaimTrial(in)
		if !c.Granted {
			break
		}
		grants++
		if grants > 4 {
			break
		}
	}
	if grants != 2 {
		t.Fatalf("resumed session granted %d further trials, want 2 (4 max - 2 replayed)", grants)
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
