package provlog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/pipeline"
)

// This file holds the WAL decoder's defences against hostile bytes: replay
// must reject any frame stream that does not describe a dense log and
// votes logged once each in trial order, and must size nothing from a
// count or index its input cannot back. The fuzz target seals every frame
// with a valid CRC, so mutations reach the decoder proper instead of dying
// at the checksum.

// sealFrames turns fuzz input into a CRC-valid WAL frame stream: the input
// is a sequence of chunks, each a uint16 LE length followed by that many
// bytes — one frame's type byte and payload — and every chunk is sealed
// with the frame checksum, so mutations reach replayState.apply instead of
// dying at the CRC. A final chunk shorter than its length is sealed as is.
func sealFrames(data []byte) []byte {
	var out []byte
	for len(data) >= 2 {
		n := int(binary.LittleEndian.Uint16(data))
		data = data[2:]
		n = min(n, len(data))
		start := len(out)
		out = append(out, data[:n]...)
		out = appendCRC(out, start)
		data = data[n:]
	}
	return out
}

// chunkFrames is sealFrames' inverse for seeding: it splits a segment's
// frame stream (header stripped) into length-prefixed chunks, checksums
// dropped.
func chunkFrames(tb testing.TB, nParams int, frames []byte) []byte {
	tb.Helper()
	sc := &scanner{r: bufio.NewReader(bytes.NewReader(frames))}
	var out []byte
	for {
		start := sc.off
		if _, _, err := sc.next(nParams); err != nil {
			break
		}
		frame := frames[start : sc.off-4]
		out = binary.LittleEndian.AppendUint16(out, uint16(len(frame)))
		out = append(out, frame...)
	}
	return out
}

// walSegment is a first segment over s holding the given frames.
func walSegment(s *pipeline.Space, frames []byte) []byte {
	seg := encodeHeader(header{fingerprint: s.Fingerprint(), nParams: uint32(s.Len())})
	return append(seg, frames...)
}

// trialIndexFrames frames failing trial votes at the given indices, in
// order, for the all-zero-codes instance of testSpace, dictionary entries
// first and each index's source entry before its first vote — with a
// header, the 142-byte reproducer for the one trial 2^24.
func trialIndexFrames(tb testing.TB, trials ...int) []byte {
	s := testSpace(tb)
	in := pipeline.MustInstance(s, pipeline.Ord(0.1), pipeline.Cat("lbfgs"), pipeline.Ord(1))
	var b []byte
	for i := 0; i < s.Len(); i++ {
		b = appendDictFrame(b, uint16(i), 0, in.Value(i))
	}
	ids := make(map[int]uint16)
	for _, trial := range trials {
		id, ok := ids[trial]
		if !ok {
			id = uint16(len(ids))
			ids[trial] = id
			b = appendSourceFrame(b, id, trialSourceName(trial, "x"))
		}
		b = appendExecFrame(b, in, pipeline.Fail, id)
	}
	return b
}

// TestReplayRejectsTrialHoles replays segments whose trial votes name an
// index the stream never reaches: replay must fail rather than end with
// holes in the vote ledger, and must not size anything from the index.
func TestReplayRejectsTrialHoles(t *testing.T) {
	for _, tc := range []struct {
		name  string
		trial int
	}{
		{"trial 2^24", 1 << 24},
		{"trial 2^20", 1 << 20},
		{"trial 1 without trial 0", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := testSpace(t)
			seg := walSegment(s, trialIndexFrames(t, tc.trial))
			dir := t.TempDir()
			if err := os.WriteFile(segPath(dir, 0), seg, 0o644); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Replay(dir, testSpace(t))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("replay of a vote ledger with holes succeeded")
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Fatalf("replay allocated %d bytes for a %d-byte segment", got, len(seg))
			}
		})
	}
}

// TestReplayRejectsVotesOutOfTrialOrder replays segments whose votes the
// writer cannot produce — it logs each vote once, in trial order — though
// no vote is missing at the end: replay must fail naming the instance, and
// allocate no more than for any other short segment.
func TestReplayRejectsVotesOutOfTrialOrder(t *testing.T) {
	for _, tc := range []struct {
		name   string
		trials []int
	}{
		{"trial 0 twice", []int{0, 0}},
		{"trial 1 before trial 0", []int{1, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := testSpace(t)
			in := pipeline.MustInstance(s, pipeline.Ord(0.1), pipeline.Cat("lbfgs"), pipeline.Ord(1))
			seg := walSegment(s, trialIndexFrames(t, tc.trials...))
			dir := t.TempDir()
			if err := os.WriteFile(segPath(dir, 0), seg, 0o644); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Replay(dir, testSpace(t))
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), in.String()) {
				t.Fatalf("Replay = %v, want an error naming %v", err, in)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Fatalf("replay allocated %d bytes for a %d-byte segment", got, len(seg))
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

// realSegmentFrames returns the frames (header stripped) of a segment the
// log wrote itself: dict, source and exec frames for a few records, and
// trial-vote frames for a flaky instance.
func realSegmentFrames(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	s := testSpace(tb)
	l, st, err := Open(dir, s)
	if err != nil {
		tb.Fatal(err)
	}
	st.SetTrialPolicy(pipeline.FlakyPolicy{MinTrials: 3, MaxTrials: 5, Quorum: 3})
	flaky := pipeline.MustInstance(s, pipeline.Ord(42), pipeline.Cat("saga"), pipeline.Ord(4))
	for _, out := range []pipeline.Outcome{pipeline.Fail, pipeline.Succeed} {
		if _, err := st.AddTrial(flaky, out, "executor"); err != nil {
			tb.Fatal(err)
		}
	}
	ins, outs, srcs := testRecords(tb, s, 8)
	for i := range ins {
		if err := st.Add(ins[i], outs[i], srcs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	seg, err := os.ReadFile(segPath(dir, 0))
	if err != nil {
		tb.Fatal(err)
	}
	return seg[headerSize:]
}

func FuzzReplaySegment(f *testing.F) {
	nParams := testSpace(f).Len()
	for _, frames := range [][]byte{realSegmentFrames(f), trialIndexFrames(f, 1<<24), trialIndexFrames(f, 0, 0), trialIndexFrames(f, 1, 0)} {
		seed := chunkFrames(f, nParams, frames)
		// The seeds are only worth fuzzing from if they seal back to the
		// very frames they came from.
		if !bytes.Equal(sealFrames(seed), frames) {
			f.Fatal("chunked seed does not reseal to its frames")
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := testSpace(t)
		seg := walSegment(s, sealFrames(data))
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 0), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := Replay(dir, s)
		runtime.ReadMemStats(&after)
		// Replay sizes nothing from what a frame claims: its memory
		// tracks the bytes it read.
		if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20+1024*uint64(len(seg)) {
			t.Fatalf("replay allocated %d bytes for a %d-byte segment", got, len(seg))
		}
		if err != nil {
			return
		}
		// Whatever replays is a dense log. Its vote ledger has no holes by
		// construction: LoadTrialVote loads only an instance's next trial.
		for i, r := range st.Records() {
			if r.Seq != i {
				t.Fatalf("record %d has seq %d", i, r.Seq)
			}
		}
	})
}
