package provlog

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pipeline"
)

func trialTestPolicy() pipeline.FlakyPolicy {
	return pipeline.FlakyPolicy{MinTrials: 3, MaxTrials: 5, Quorum: 3}
}

func TestTrialSourceNameRoundtrip(t *testing.T) {
	for _, src := range []string{"executor", "csv", "with#hash"} {
		for _, idx := range []int{0, 1, 42} {
			name := trialSourceName(idx, src)
			if !isTrialSource(name) {
				t.Fatalf("%q not recognized as a trial source", name)
			}
			gotIdx, gotSrc, ok := parseTrialSource(name)
			if !ok || gotIdx != idx || gotSrc != src {
				t.Fatalf("parseTrialSource(%q) = %d, %q, %v; want %d, %q", name, gotIdx, gotSrc, ok, idx, src)
			}
		}
	}
	for _, s := range []string{"executor", "trial#", "trial#x#y", "trial#-1#y", "trial#7"} {
		if _, _, ok := parseTrialSource(s); ok {
			t.Errorf("parseTrialSource(%q) accepted a malformed name", s)
		}
	}
}

func TestRecordSourceRejectsTrialPrefix(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	in := pipeline.MustInstance(s, pipeline.Ord(0.1), pipeline.Cat("lbfgs"), pipeline.Ord(1))
	if err := st.Add(in, pipeline.Fail, "trial#0#executor"); err == nil {
		t.Fatal("record with the reserved trial source prefix was accepted")
	}
}

// TestAppendTrialRejectsForeignSpace pins AppendTrial's space guard: a
// vote on an instance of another space, whether a twin space's or a
// smaller space's, fails and writes nothing to the segment.
func TestAppendTrialRejectsForeignSpace(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, _, err := Open(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	segSize := func() int64 {
		t.Helper()
		fi, err := os.Stat(segPath(dir, 0))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before := segSize()
	twin := pipeline.MustInstance(testSpace(t), pipeline.Ord(0.1), pipeline.Cat("lbfgs"), pipeline.Ord(1))
	small := pipeline.MustInstance(pipeline.MustSpace(
		pipeline.Parameter{Name: "alpha", Kind: pipeline.Ordinal, Domain: []pipeline.Value{pipeline.Ord(0.1)}},
	), pipeline.Ord(0.1))
	for _, in := range []pipeline.Instance{twin, small} {
		if err := l.AppendTrial(in, 0, pipeline.Fail, "executor"); err == nil {
			t.Fatalf("AppendTrial(%v) of another space succeeded", in)
		}
	}
	if after := segSize(); after != before {
		t.Fatalf("segment grew from %d to %d bytes on rejected votes", before, after)
	}
}

// rebuild re-creates an instance's value assignment in another space:
// Instance equality is space-scoped, so a store replayed into a fresh
// space (a restarted process) must be queried with that space's own
// instances.
func rebuild(t *testing.T, s *pipeline.Space, in pipeline.Instance) pipeline.Instance {
	t.Helper()
	vals := make([]pipeline.Value, s.Len())
	for i := range vals {
		vals[i] = in.Value(i)
	}
	return pipeline.MustInstance(s, vals...)
}

// snapshotDir copies every file of a live state directory into a fresh
// temp dir: the on-disk state a SIGKILL at this instant would leave
// behind (votes and records are durable once their append returns, so
// the copy is a superset of any kill point after it).
func snapshotDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestTrialVotesSurviveKill writes a partial quorum, snapshots the state
// directory as a kill at that instant would leave it, and opens the
// snapshot: the votes must replay, resolution must still be pending, and
// the resumed session must be able to finish the quorum and commit the
// resolved record.
func TestTrialVotesSurviveKill(t *testing.T) {
	dir := t.TempDir()
	s1 := testSpace(t)
	l1, st1, err := Open(dir, s1)
	if err != nil {
		t.Fatal(err)
	}
	defer l1.Close()
	st1.SetTrialPolicy(trialTestPolicy())
	in1 := pipeline.MustInstance(s1, pipeline.Ord(0.5), pipeline.Cat("saga"), pipeline.Ord(2))
	// Two of three needed votes: mid-quorum.
	for i := 0; i < 2; i++ {
		if _, err := st1.AddTrial(in1, pipeline.Fail, "executor"); err != nil {
			t.Fatal(err)
		}
	}
	// A deterministic record beside the votes, to prove interleaving.
	other := pipeline.MustInstance(s1, pipeline.Ord(0.1), pipeline.Cat("lbfgs"), pipeline.Ord(1))
	if err := st1.Add(other, pipeline.Succeed, "executor"); err != nil {
		t.Fatal(err)
	}
	// Simulated SIGKILL: the resumed session opens a byte copy of the
	// directory as the dead process left it, never a cleanly Closed log.
	killDir := snapshotDir(t, dir)

	s2 := testSpace(t)
	l2, st2, err := Open(killDir, s2)
	if err != nil {
		t.Fatal(err)
	}
	st2.SetTrialPolicy(trialTestPolicy())
	in2 := rebuild(t, s2, in1)
	if got := st2.TrialCount(in2); got != 2 {
		t.Fatalf("replayed TrialCount = %d, want 2", got)
	}
	if _, found := st2.Lookup(in2); found {
		t.Fatal("mid-quorum instance must not be memoized after replay")
	}
	if out, found := st2.Lookup(rebuild(t, s2, other)); !found || out != pipeline.Succeed {
		t.Fatalf("deterministic record lost across the kill: %v, %v", out, found)
	}
	// The replayed votes do not settle the instance yet, and the resumed
	// session's next vote continues at trial index 2.
	if out, done := st2.TrialOutcome(in2); done {
		t.Fatalf("replayed mid-quorum TrialOutcome = %v, settled", out)
	}
	res, err := st2.AddTrial(in2, pipeline.Fail, "executor")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resolved || res.Outcome != pipeline.Fail || res.Fail != 3 || res.Trial != 2 {
		t.Fatalf("resumed third vote = %+v, want trial 2 resolving at 0-3", res)
	}
	if err := st2.Add(in2, pipeline.Fail, "executor"); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	// A third open sees the committed resolution and the full ledger.
	s3 := testSpace(t)
	st3, err := Replay(killDir, s3)
	if err != nil {
		t.Fatal(err)
	}
	in3 := rebuild(t, s3, in1)
	if out, found := st3.Lookup(in3); !found || out != pipeline.Fail {
		t.Fatalf("resolved record after full cycle = %v, %v", out, found)
	}
	if got := st3.TrialCount(in3); got != 3 {
		t.Fatalf("final TrialCount = %d, want 3", got)
	}
}

// TestTrialVotesSurviveCheckpoint interleaves votes with enough records to
// rotate segments, checkpoints twice — the second with nothing new — and
// reopens: the votes, whose frames now lie in sealed segments, must still
// replay.
func TestTrialVotesSurviveCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s, withSegmentSize(1))
	if err != nil {
		t.Fatal(err)
	}
	st.SetTrialPolicy(trialTestPolicy())
	flaky := pipeline.MustInstance(s, pipeline.Ord(0.9), pipeline.Cat("saga"), pipeline.Ord(4))
	if _, err := st.AddTrial(flaky, pipeline.Succeed, "executor"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddTrial(flaky, pipeline.Fail, "executor"); err != nil {
		t.Fatal(err)
	}
	ins, outs, srcs := testRecords(t, s, 20)
	fillStore(t, st, ins, outs, srcs)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := testSpace(t)
	got, err := Replay(dir, s2)
	if err != nil {
		t.Fatal(err)
	}
	flaky2 := rebuild(t, s2, flaky)
	votes := got.TrialVotes(flaky2)
	if len(votes) != 2 || votes[0].Outcome != pipeline.Succeed || votes[1].Outcome != pipeline.Fail {
		t.Fatalf("votes after checkpoint+replay = %+v, want [succeed fail]", votes)
	}
	if _, found := got.Lookup(flaky2); found {
		t.Fatal("unresolved flaky instance must not be memoized")
	}
	for i := range ins {
		if out, found := got.Lookup(rebuild(t, s2, ins[i])); !found || out != outs[i] {
			t.Fatalf("record %d lost across checkpoint: %v, %v", i, out, found)
		}
	}
}

// TestInconclusiveRecordRoundtrip persists an inconclusive (tied-quorum)
// record through the WAL and replay.
func TestInconclusiveRecordRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	tied := pipeline.MustInstance(s, pipeline.Ord(0.5), pipeline.Cat("lbfgs"), pipeline.Ord(3))
	if err := st.Add(tied, pipeline.OutcomeInconclusive, "executor"); err != nil {
		t.Fatal(err)
	}
	ins, outs, srcs := testRecords(t, s, 8)
	fillStore(t, st, ins, outs, srcs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := testSpace(t)
	got, err := Replay(dir, s2)
	if err != nil {
		t.Fatal(err)
	}
	if out, found := got.Lookup(rebuild(t, s2, tied)); !found || out != pipeline.OutcomeInconclusive {
		t.Fatalf("inconclusive record after replay = %v, %v", out, found)
	}
	succ, fail := got.Outcomes()
	wantS, wantF := 0, 0
	for _, o := range outs {
		if o == pipeline.Succeed {
			wantS++
		} else {
			wantF++
		}
	}
	if succ != wantS || fail != wantF {
		t.Fatalf("Outcomes = %d, %d; want %d, %d (inconclusive counts as neither)", succ, fail, wantS, wantF)
	}
}

// TestTrialFramesConsumeNoSequence checks the additive-format invariant:
// trial frames do not advance the record sequence, so a log whose window
// opens with votes still stamps the next record with the right sequence
// and replays against rotated segment headers.
func TestTrialFramesConsumeNoSequence(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s, withSegmentSize(1))
	if err != nil {
		t.Fatal(err)
	}
	st.SetTrialPolicy(trialTestPolicy())
	ins, outs, srcs := testRecords(t, s, 12)
	flaky := pipeline.MustInstance(s, pipeline.Ord(0.9), pipeline.Cat("lbfgs"), pipeline.Ord(4))
	for i := range ins {
		// A vote before every record: windows and segments open on trial
		// frames as often as on records.
		if st.TrialCount(flaky) < 2 {
			if _, err := st.AddTrial(flaky, pipeline.Succeed, "executor"); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Add(ins[i], outs[i], srcs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if segmentCount(l) < 2 {
		t.Fatalf("segments = %d, want rotation", segmentCount(l))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(dir, testSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(ins) {
		t.Fatalf("replayed %d records, want %d (trial frames must not count)", got.Len(), len(ins))
	}
	sn := got.Snapshot()
	for i := 0; i < sn.Len(); i++ {
		if sn.At(i).Seq != i {
			t.Fatalf("record %d has seq %d, want %d", i, sn.At(i).Seq, i)
		}
	}
}
