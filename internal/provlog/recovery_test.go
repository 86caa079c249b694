package provlog

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pipeline"
)

// buildBoundedLog writes records one at a time into a single-segment log
// and returns the segment's byte size after each append: boundaries[k] is
// the intact-prefix size holding exactly k records.
func buildBoundedLog(t *testing.T, dir string, n int) (boundaries []int64, ins []pipeline.Instance, outs []pipeline.Outcome, srcs []string) {
	t.Helper()
	s := testSpace(t)
	l, st, err := Open(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "wal-000000.seg")
	size := func() int64 {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	boundaries = append(boundaries, size())
	ins, outs, srcs = testRecords(t, s, n)
	for i := range ins {
		if err := st.Add(ins[i], outs[i], srcs[i]); err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, size())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return boundaries, ins, outs, srcs
}

// intactPrefix returns how many records survive truncation at offset off: a
// record counts only when every byte of its append batch (dictionary and
// source frames included) lies before the cut.
func intactPrefix(boundaries []int64, off int64) int {
	k := 0
	for k+1 < len(boundaries) && boundaries[k+1] <= off {
		k++
	}
	return k
}

// TestRecoveryTruncationTorture truncates the log at every byte offset —
// covering every position inside the final record, and every earlier record
// too — and asserts Replay recovers exactly the intact prefix each time.
func TestRecoveryTruncationTorture(t *testing.T) {
	srcDir := t.TempDir()
	boundaries, ins, outs, srcs := buildBoundedLog(t, srcDir, 12)
	data, err := os.ReadFile(filepath.Join(srcDir, "wal-000000.seg"))
	if err != nil {
		t.Fatal(err)
	}
	full := int64(len(data))
	if full != boundaries[len(boundaries)-1] {
		t.Fatalf("segment is %d bytes, boundaries end at %d", full, boundaries[len(boundaries)-1])
	}
	cutDir := t.TempDir()
	cutSeg := filepath.Join(cutDir, "wal-000000.seg")
	for off := int64(0); off < full; off++ {
		if err := os.WriteFile(cutSeg, data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Replay(cutDir, testSpace(t))
		if err != nil {
			t.Fatalf("offset %d: Replay: %v", off, err)
		}
		want := intactPrefix(boundaries, off)
		if st.Len() != want {
			t.Fatalf("offset %d: recovered %d records, want %d", off, st.Len(), want)
		}
		sn := st.Snapshot()
		for i := 0; i < want; i++ {
			r := sn.At(i)
			if r.Instance.Key() != ins[i].Key() || r.Outcome != outs[i] || r.Source != srcs[i] {
				t.Fatalf("offset %d: record %d = {%v %v %q}, want {%v %v %q}",
					off, i, r.Instance, r.Outcome, r.Source, ins[i], outs[i], srcs[i])
			}
		}
	}
}

// TestRecoveryOpenRepairsAndResumes simulates the crash-resume cycle: cut
// the log mid-record, Open must truncate the torn tail, continue appending
// from the recovery point, and leave a log that replays in full.
func TestRecoveryOpenRepairsAndResumes(t *testing.T) {
	dir := t.TempDir()
	boundaries, ins, outs, srcs := buildBoundedLog(t, dir, 12)
	seg := filepath.Join(dir, "wal-000000.seg")
	// Cut into the middle of record 9's append batch: 8 records survive.
	cut := boundaries[8] + (boundaries[9]-boundaries[8])/2
	if err := os.Truncate(seg, cut); err != nil {
		t.Fatal(err)
	}

	s := testSpace(t)
	l, st, err := Open(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 8 {
		t.Fatalf("recovered store has %d records, want 8", st.Len())
	}
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != boundaries[8] {
		t.Fatalf("Open left the segment at %d bytes, want truncation to %d", fi.Size(), boundaries[8])
	}
	// Re-execute the lost tail, as a resumed session would.
	for i := 8; i < len(ins); i++ {
		vals := make([]pipeline.Value, ins[i].Len())
		for j := range vals {
			vals[j] = ins[i].Value(j)
		}
		in, err := pipeline.NewInstance(s, vals)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Add(in, outs[i], srcs[i]); err != nil {
			t.Fatalf("resumed Add %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := Replay(dir, testSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(ins) {
		t.Fatalf("replayed %d records after repair, want %d", got.Len(), len(ins))
	}
	sn := got.Snapshot()
	for i := range ins {
		r := sn.At(i)
		if r.Instance.Key() != ins[i].Key() || r.Outcome != outs[i] || r.Source != srcs[i] {
			t.Fatalf("record %d = {%v %v %q}, want {%v %v %q}",
				i, r.Instance, r.Outcome, r.Source, ins[i], outs[i], srcs[i])
		}
	}
}

// TestRecoveryTornHeader cuts into the very header of the only segment:
// Replay sees an empty log, and Open rebuilds the segment and accepts
// appends.
func TestRecoveryTornHeader(t *testing.T) {
	dir := t.TempDir()
	_, ins, outs, srcs := buildBoundedLog(t, dir, 3)
	seg := filepath.Join(dir, "wal-000000.seg")
	if err := os.Truncate(seg, headerSize/2); err != nil {
		t.Fatal(err)
	}
	st, err := Replay(dir, testSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 0 {
		t.Fatalf("recovered %d records from a torn header, want 0", st.Len())
	}
	s2 := testSpace(t)
	l, st2, err := Open(dir, s2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != 0 {
		t.Fatalf("Open recovered %d records from a torn header, want 0", st2.Len())
	}
	vals := make([]pipeline.Value, ins[0].Len())
	for j := range vals {
		vals[j] = ins[0].Value(j)
	}
	in, err := pipeline.NewInstance(s2, vals)
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Add(in, outs[0], srcs[0]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(dir, testSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("replayed %d records, want 1", got.Len())
	}
}

// TestRecoveryTornTailInFinalOfManySegments crashes after rotation: sealed
// segments replay whole, only the final segment's tail truncates.
func TestRecoveryTornTailInFinalOfManySegments(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s, withSegmentSize(200))
	if err != nil {
		t.Fatal(err)
	}
	ins, outs, srcs := testRecords(t, s, 24)
	fillStore(t, st, ins, outs, srcs)
	segN := segmentCount(l)
	if segN < 2 {
		t.Fatalf("need rotation, got %d segments", segN)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	last := segPath(dir, uint32(segN-1))
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() <= headerSize {
		t.Skip("final segment holds no records at this size threshold")
	}
	// Chop a few bytes off the final record.
	if err := os.Truncate(last, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(dir, testSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() >= len(ins) || got.Len() == 0 {
		t.Fatalf("recovered %d records, want a non-empty strict prefix of %d", got.Len(), len(ins))
	}
	sn := got.Snapshot()
	for i := 0; i < got.Len(); i++ {
		if sn.At(i).Instance.Key() != ins[i].Key() {
			t.Fatalf("record %d diverged after tail truncation", i)
		}
	}
}
