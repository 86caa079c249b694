package provlog

import (
	"testing"
)

// TestOpenResumeMatchesReplay covers the resume path end to end: a
// directory holding a checkpoint plus a WAL suffix reopens into a store
// indistinguishable from a read-only Replay, and a session extended after
// that resume — appends, another compaction — reopens identically again.
func TestOpenResumeMatchesReplay(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	ins, outs, srcs := testRecords(t, s, 150)
	fillStore(t, st, ins[:80], outs[:80], srcs[:80])
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A live suffix past the watermark: the reopen must replay it on top
	// of the loaded run.
	fillStore(t, st, ins[80:120], outs[80:120], srcs[80:120])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	flat, err := Replay(dir, testSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	assertStoreMatches(t, flat, ins[:120], outs[:120], srcs[:120])

	l2, st2, err := Open(dir, testSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, flat, st2)
	// Extend the resumed session and compact again. Instances are
	// space-bound, so the history is regenerated over the reopened space.
	ins, outs, srcs = testRecords(t, st2.Space(), 150)
	fillStore(t, st2, ins[120:], outs[120:], srcs[120:])
	if err := l2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	flat2, err := Replay(dir, testSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	if flat2.Len() != 150 {
		t.Fatalf("extended session holds %d records, want 150", flat2.Len())
	}
	l3, st3, err := Open(dir, testSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	assertStoresEqual(t, flat2, st3)
}
