package provlog

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
)

// A checkpoint of a log is Log.Sync: the WAL is the whole state, so
// making it durable at a point of the caller's choosing is one fsync of
// the active segment. These tests pin what a checkpoint guarantees.

// stateFiles returns the sorted names of dir's entries.
func stateFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	slices.Sort(names)
	return names
}

// fileSize returns the size of the file at path.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestCheckpointRoundTrip checkpoints a log and reopens it: the
// directory holds only the WAL, its space and its lock, Open rebuilds the
// identical store, and that store keeps accepting appends that survive a
// further reopen.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	ins, outs, srcs := testRecords(t, s, 20)
	fillStore(t, st, ins, outs, srcs)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := stateFiles(t, dir), []string{spaceFile, "wal-000000.seg", "wal.lock"}; !slices.Equal(got, want) {
		t.Fatalf("checkpointed directory holds %v, want %v", got, want)
	}

	s2 := testSpace(t)
	l2, st2, err := Open(dir, s2)
	if err != nil {
		t.Fatal(err)
	}
	assertStoreMatches(t, st2, ins, outs, srcs)
	more, mouts, msrcs := testRecords(t, s2, len(ins)+5)
	fillStore(t, st2, more[len(ins):], mouts[len(ins):], msrcs[len(ins):])
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(dir, testSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	assertStoreMatches(t, got, more, mouts, msrcs)
}

// TestCheckpointSuffixReplay keeps a log growing past a checkpoint,
// across several more small segments: the reopened store holds the whole
// history, the records before the checkpoint and the suffix after it.
func TestCheckpointSuffixReplay(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s, withSegmentSize(256))
	if err != nil {
		t.Fatal(err)
	}
	ins, outs, srcs := testRecords(t, s, 40)
	fillStore(t, st, ins[:25], outs[:25], srcs[:25])
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	fillStore(t, st, ins[25:], outs[25:], srcs[25:])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, st2, err := Open(dir, testSpace(t), withSegmentSize(256))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	assertStoreMatches(t, st2, ins, outs, srcs)
}

// TestCheckpointPartialCoverage checkpoints after w of 20 records and
// keeps appending, so the checkpoint covers only a prefix of the live
// segment. The directory reopens to all 20 records. A copy cut back to
// the bytes the checkpoint made durable — what a machine crash that drops
// every later, unsynced write leaves — reopens to exactly the first w,
// and the rest append onto it cleanly.
func TestCheckpointPartialCoverage(t *testing.T) {
	for _, w := range []int{1, 7, 19, 20} {
		t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) {
			dir := t.TempDir()
			s := testSpace(t)
			l, st, err := Open(dir, s)
			if err != nil {
				t.Fatal(err)
			}
			ins, outs, srcs := testRecords(t, s, 20)
			fillStore(t, st, ins[:w], outs[:w], srcs[:w])
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			synced := fileSize(t, segPath(dir, 0))
			fillStore(t, st, ins[w:], outs[w:], srcs[w:])
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			l2, st2, err := Open(dir, testSpace(t))
			if err != nil {
				t.Fatal(err)
			}
			assertStoreMatches(t, st2, ins, outs, srcs)
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}

			crashed := snapshotDir(t, dir)
			if err := os.Truncate(segPath(crashed, 0), synced); err != nil {
				t.Fatal(err)
			}
			s3 := testSpace(t)
			l3, st3, err := Open(crashed, s3)
			if err != nil {
				t.Fatal(err)
			}
			assertStoreMatches(t, st3, ins[:w], outs[:w], srcs[:w])
			again, aouts, asrcs := testRecords(t, s3, 20)
			fillStore(t, st3, again[w:], aouts[w:], asrcs[w:])
			if err := l3.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := Replay(crashed, testSpace(t))
			if err != nil {
				t.Fatal(err)
			}
			assertStoreMatches(t, got, ins, outs, srcs)
		})
	}
}

// TestCheckpointDifferential drives randomized histories through two logs
// that record the same records, one checkpointed at random points and one
// never. A checkpoint writes no byte, so their segments are identical, and
// both replay to identical stores: records, dictionaries, and every
// indexed query surface.
func TestCheckpointDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			n := 10 + r.Intn(60)
			segSize := int64(128 + r.Intn(2048))
			nCkpts := 1 + r.Intn(4)
			at := map[int]bool{}
			for len(at) < nCkpts {
				at[1+r.Intn(n)] = true // after record i; n means no suffix
			}

			s := testSpace(t)
			ins, outs, srcs := testRecords(t, s, n)
			// Instances bind to their space; the twin records the same
			// history over its own independently constructed space.
			sW := testSpace(t)
			insW, _, _ := testRecords(t, sW, n)
			ckptDir, walDir := t.TempDir(), t.TempDir()
			lc, stC, err := Open(ckptDir, s, withSegmentSize(segSize))
			if err != nil {
				t.Fatal(err)
			}
			lw, stW, err := Open(walDir, sW, withSegmentSize(segSize))
			if err != nil {
				t.Fatal(err)
			}
			for i := range ins {
				if err := stC.Add(ins[i], outs[i], srcs[i]); err != nil {
					t.Fatal(err)
				}
				if err := stW.Add(insW[i], outs[i], srcs[i]); err != nil {
					t.Fatal(err)
				}
				if at[i+1] {
					if err := lc.Sync(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := lc.Close(); err != nil {
				t.Fatal(err)
			}
			if err := lw.Close(); err != nil {
				t.Fatal(err)
			}

			if got, want := stateFiles(t, ckptDir), stateFiles(t, walDir); !slices.Equal(got, want) {
				t.Fatalf("checkpointed directory holds %v, its twin %v", got, want)
			}
			segs, err := listSegments(walDir)
			if err != nil {
				t.Fatal(err)
			}
			for _, sf := range segs {
				a, err := os.ReadFile(segPath(ckptDir, sf.index))
				if err != nil {
					t.Fatal(err)
				}
				b, err := os.ReadFile(sf.path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("segment %d differs from its twin after %d checkpoints", sf.index, nCkpts)
				}
			}

			viaCkpt, err := Replay(ckptDir, testSpace(t))
			if err != nil {
				t.Fatal(err)
			}
			viaWAL, err := Replay(walDir, testSpace(t))
			if err != nil {
				t.Fatal(err)
			}
			assertStoreMatches(t, viaCkpt, ins, outs, srcs)
			assertStoresEqual(t, viaWAL, viaCkpt)
		})
	}
}

// TestCheckpointLostTail simulates a machine crash after a checkpoint:
// the OS dropped the writes that followed it, and tore the first of them.
// Open rebuilds exactly the checkpointed records, truncates the torn
// bytes, and appends re-anchor cleanly.
func TestCheckpointLostTail(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	ins, outs, srcs := testRecords(t, s, 26)
	fillStore(t, st, ins[:20], outs[:20], srcs[:20])
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	synced := fileSize(t, segPath(dir, 0))
	fillStore(t, st, ins[20:], outs[20:], srcs[20:])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Keep three bytes of the first lost frame: shorter than any frame.
	seg := segPath(dir, 0)
	if err := os.Truncate(seg, synced+3); err != nil {
		t.Fatal(err)
	}

	s2 := testSpace(t)
	l2, st2, err := Open(dir, s2)
	if err != nil {
		t.Fatal(err)
	}
	assertStoreMatches(t, st2, ins[:20], outs[:20], srcs[:20])
	if got := fileSize(t, seg); got != synced {
		t.Fatalf("reopened segment is %d bytes, want the %d the checkpoint made durable", got, synced)
	}
	more, mouts, msrcs := testRecords(t, s2, len(ins))
	fillStore(t, st2, more[20:], mouts[20:], msrcs[20:])
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(dir, testSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	assertStoreMatches(t, got, ins, outs, srcs)
}

// TestCheckpointNoop covers the degenerate checkpoints: one on an empty
// log, and a repeat with no new records, write nothing — no file and no
// byte — and one on a closed log fails.
func TestCheckpointNoop(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	files := stateFiles(t, dir)
	seg := segPath(dir, 0)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, seg); got != headerSize {
		t.Fatalf("empty-log checkpoint grew the segment to %d bytes", got)
	}
	ins, outs, srcs := testRecords(t, s, 5)
	fillStore(t, st, ins, outs, srcs)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	size := fileSize(t, seg)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, seg); got != size {
		t.Fatalf("repeated checkpoint grew the segment from %d to %d bytes", size, got)
	}
	if got := stateFiles(t, dir); !slices.Equal(got, files) {
		t.Fatalf("checkpoints changed the directory from %v to %v", files, got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err == nil {
		t.Fatal("Sync on a closed log succeeded")
	}
}

// TestCheckpointConcurrentAppends checkpoints while writers keep
// appending through the store and segments rotate under them; every
// record must survive into the reopened store.
func TestCheckpointConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s, withSegmentSize(512))
	if err != nil {
		t.Fatal(err)
	}
	ins, outs, srcs := testRecords(t, s, 60)
	const writers = 4
	errc := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := w; i < len(ins); i += writers {
				if err := st.Add(ins[i], outs[i], srcs[i]); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(w)
	}
	go func() {
		for i := 0; i < 3; i++ {
			if err := l.Sync(); err != nil {
				errc <- fmt.Errorf("checkpoint: %w", err)
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < writers+1; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, st2, err := Open(dir, testSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st2.Len() != len(ins) {
		t.Fatalf("reopened store holds %d records, want %d", st2.Len(), len(ins))
	}
	for i := range ins {
		in := rebuild(t, st2.Space(), ins[i])
		if out, ok := st2.Lookup(in); !ok || out != outs[i] {
			t.Fatalf("record %d: Lookup = %v, %v, want %v", i, out, ok, outs[i])
		}
	}
}

// TestDecodeRejectsDuplicateSeq rewrites the second segment's header,
// under a valid CRC, to claim a first sequence number the segment before
// it already used: its records would repeat sequence numbers, so Open and
// Replay both reject the log, naming the segment.
func TestDecodeRejectsDuplicateSeq(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s, withSegmentSize(256))
	if err != nil {
		t.Fatal(err)
	}
	ins, outs, srcs := testRecords(t, s, 30)
	fillStore(t, st, ins, outs, srcs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("log has %d segments, want at least 3", len(segs))
	}
	path := segs[1].path
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := decodeHeader(data[:headerSize])
	if err != nil {
		t.Fatal(err)
	}
	if h.firstSeq == 0 {
		t.Fatal("second segment starts at sequence 0")
	}
	h.firstSeq--
	copy(data, encodeHeader(h))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("wal-000001.seg: first sequence %d", h.firstSeq)
	if _, err := Replay(dir, testSpace(t)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Replay = %v, want an error containing %q", err, want)
	}
	l2, _, err := Open(dir, testSpace(t))
	if err == nil {
		l2.Close()
	}
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Open = %v, want an error containing %q", err, want)
	}
}
