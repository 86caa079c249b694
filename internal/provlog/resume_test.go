package provlog

import (
	"os"
	"strings"
	"testing"

	"repro/internal/pipeline"
)

// TestOpenResumeMatchesReplay covers the resume path end to end: a
// directory holding a WAL reopens into a store indistinguishable from a
// read-only Replay, and a session extended after that resume reopens
// identically again.
func TestOpenResumeMatchesReplay(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	ins, outs, srcs := testRecords(t, s, 150)
	fillStore(t, st, ins[:120], outs[:120], srcs[:120])
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
	// Extend the resumed session. Instances are space-bound, so the
	// history is regenerated over the reopened space.
	ins, outs, srcs = testRecords(t, st2.Space(), 150)
	fillStore(t, st2, ins[120:], outs[120:], srcs[120:])
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

// frameRecords frames ins as a WAL frame stream over s: one source entry,
// and each dictionary entry just before the first record that uses it.
func frameRecords(s *pipeline.Space, ins []pipeline.Instance) []byte {
	b := appendSourceFrame(nil, 0, "executor")
	framed := make([]uint32, s.Len())
	for _, in := range ins {
		for i := range framed {
			for ; framed[i] <= in.Code(i); framed[i]++ {
				b = appendDictFrame(b, uint16(i), framed[i], s.InternedValue(i, framed[i]))
			}
		}
		b = appendExecFrame(b, in, pipeline.Fail, 0)
	}
	return b
}

// TestReplayRejectsRepeatedInstance pins replay's duplicate rejection. A
// store-fed log holds each instance once, so exec frames that repeat an
// instance — within one replay batch, across two, or past a checkpoint,
// in a later segment than the original — mean the log is corrupt: Open
// and Replay both fail, naming the instance.
func TestReplayRejectsRepeatedInstance(t *testing.T) {
	for _, tc := range []struct {
		name string
		// write fills dir with a log that repeats the returned instance.
		write func(t *testing.T, dir string) pipeline.Instance
	}{
		{"within one batch", func(t *testing.T, dir string) pipeline.Instance {
			s := testSpace(t)
			ins, _, _ := testRecords(t, s, 3)
			seg := walSegment(s, frameRecords(s, append(ins, ins[1])))
			if err := os.WriteFile(segPath(dir, 0), seg, 0o644); err != nil {
				t.Fatal(err)
			}
			return ins[1]
		}},
		{"across two batches", func(t *testing.T, dir string) pipeline.Instance {
			s := testSpace(t)
			ins := make([]pipeline.Instance, replayBatch+8)
			for i := range ins {
				ins[i] = pipeline.MustInstance(s, pipeline.Ord(float64(i)), pipeline.Cat("saga"), pipeline.Ord(2))
			}
			seg := walSegment(s, frameRecords(s, append(ins, ins[5])))
			if err := os.WriteFile(segPath(dir, 0), seg, 0o644); err != nil {
				t.Fatal(err)
			}
			return ins[5]
		}},
		{"past a checkpoint", func(t *testing.T, dir string) pipeline.Instance {
			s := testSpace(t)
			l, st, err := Open(dir, s, withSegmentSize(256))
			if err != nil {
				t.Fatal(err)
			}
			ins, outs, srcs := testRecords(t, s, 40)
			fillStore(t, st, ins, outs, srcs)
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			segs, err := listSegments(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(segs) < 2 {
				t.Fatalf("log has %d segments, want the repeat in a later one", len(segs))
			}
			f, err := os.OpenFile(segs[len(segs)-1].path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(appendExecFrame(nil, ins[3], outs[3], 0)); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			return ins[3]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			in := tc.write(t, dir)
			if _, err := Replay(dir, testSpace(t)); err == nil || !strings.Contains(err.Error(), in.String()) {
				t.Fatalf("Replay = %v, want an error naming %v", err, in)
			}
			l, _, err := Open(dir, testSpace(t))
			if err == nil {
				l.Close()
			}
			if err == nil || !strings.Contains(err.Error(), in.String()) {
				t.Fatalf("Open = %v, want an error naming %v", err, in)
			}
		})
	}
}
