package provlog

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/provenance"
	"repro/internal/telemetry"
)

// writerInstance builds a distinct instance per (writer, i) pair using
// out-of-domain ordinals, so concurrent writers never collide.
func writerInstance(t *testing.T, s *pipeline.Space, writer, i int) pipeline.Instance {
	t.Helper()
	in, err := pipeline.NewInstance(s, []pipeline.Value{
		pipeline.Ord(float64(1000*writer + i)),
		pipeline.Cat(fmt.Sprintf("solver-%d", writer%3)),
		pipeline.Ord(float64(i % 4)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func outcomeFor(in pipeline.Instance) pipeline.Outcome {
	if in.Hash()&1 == 0 {
		return pipeline.Fail
	}
	return pipeline.Succeed
}

// TestConcurrentAppends hammers a durable store with N writers × M
// appends each, fsyncing every write, and asserts every record is durable
// after Close and that each writer's records replay in its submission
// order (appends are acknowledged durable in order, so a writer's k-th
// record must precede its (k+1)-th in the log).
func TestConcurrentAppends(t *testing.T) {
	const writers, perWriter = 8, 40
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s, WithSync(true))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				in := writerInstance(t, s, w, i)
				if err := st.Add(in, outcomeFor(in), fmt.Sprintf("writer-%d", w)); err != nil {
					errs <- fmt.Errorf("writer %d append %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st.Len() != writers*perWriter {
		t.Fatalf("store has %d records, want %d", st.Len(), writers*perWriter)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	replayed, err := Replay(dir, testSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Len() != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", replayed.Len(), writers*perWriter)
	}
	seqByKey := make(map[string]int, replayed.Len())
	sn := replayed.Snapshot()
	for i := 0; i < sn.Len(); i++ {
		r := sn.At(i)
		seqByKey[r.Instance.Key()] = r.Seq
		if r.Outcome != outcomeFor(r.Instance) {
			t.Fatalf("record %d replayed outcome %v", i, r.Outcome)
		}
	}
	for w := 0; w < writers; w++ {
		prev := -1
		for i := 0; i < perWriter; i++ {
			key := writerInstance(t, s, w, i).Key()
			seq, ok := seqByKey[key]
			if !ok {
				t.Fatalf("writer %d record %d missing from replay", w, i)
			}
			if seq <= prev {
				t.Fatalf("writer %d record %d replayed at seq %d, not after %d", w, i, seq, prev)
			}
			prev = seq
		}
	}
}

// TestConcurrentBatchesAndAppends races AddBatch rounds against single
// Adds, with instances shared across goroutines (the loser of each race
// must skip, not fail), and asserts the live store and the replayed log
// agree exactly.
func TestConcurrentBatchesAndAppends(t *testing.T) {
	const batchers, batchSize, adders, adds = 4, 32, 4, 24
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s, WithSync(true))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, batchers+adders)
	for b := 0; b < batchers; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			entries := make([]provenance.Entry, 0, batchSize)
			for i := 0; i < batchSize; i++ {
				// Writers b and b+1 share half their instances, so batches
				// race each other (and the single adders below) on them.
				in := writerInstance(t, s, b/2, i)
				entries = append(entries, provenance.Entry{
					Instance: in, Outcome: outcomeFor(in), Source: "batch",
				})
			}
			if _, err := st.AddBatch(entries); err != nil {
				errs <- fmt.Errorf("batcher %d: %w", b, err)
			}
		}(b)
	}
	for a := 0; a < adders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				in := writerInstance(t, s, a/2, i)
				err := st.Add(in, outcomeFor(in), "single")
				if err == nil {
					continue
				}
				// Losing the race to a batch is expected; the record must
				// then be queryable with the same outcome.
				if out, ok := st.Lookup(in); !ok || out != outcomeFor(in) {
					errs <- fmt.Errorf("adder %d: %v, and lookup = %v %v", a, err, out, ok)
					return
				}
			}
		}(a)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	replayed, err := Replay(dir, testSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, st, replayed)
}

// buildBatchLog writes one multi-record batch (a single AddBatch, one
// write) into a fresh log and returns the byte offset at which each record's exec
// frame ends, computed by re-scanning the segment with the package's own
// frame reader.
func buildBatchLog(t *testing.T, dir string, n int) (recEnds []int64, ins []pipeline.Instance, outs []pipeline.Outcome, srcs []string) {
	t.Helper()
	s := testSpace(t)
	l, st, err := Open(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	ins, outs, srcs = testRecords(t, s, n)
	entries := make([]provenance.Entry, n)
	for i := range ins {
		entries[i] = provenance.Entry{Instance: ins[i], Outcome: outs[i], Source: srcs[i]}
	}
	added, err := st.AddBatch(entries)
	if err != nil || added != n {
		t.Fatalf("AddBatch = %d, %v; want %d", added, err, n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := segmentCount(l); got != 1 {
		t.Fatalf("batch spilled into %d segments", got)
	}

	f, err := os.Open(filepath.Join(dir, "wal-000000.seg"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Seek(headerSize, 0); err != nil {
		t.Fatal(err)
	}
	sc := &scanner{r: bufio.NewReaderSize(f, 1<<16)}
	sc.off = headerSize
	for {
		typ, _, err := sc.next(s.Len())
		if err != nil {
			break
		}
		if typ == frameExec {
			recEnds = append(recEnds, sc.off)
		}
	}
	if len(recEnds) != n {
		t.Fatalf("scanned %d exec frames, want %d", len(recEnds), n)
	}
	return recEnds, ins, outs, srcs
}

// TestBatchCommitTornTailTorture truncates a log whose records were
// written as one multi-record batch frame sequence at every byte offset —
// every position inside the batch's single write — and asserts recovery
// yields exactly the records whose frames are fully intact: a torn batch
// never replays garbage, never drops an intact prefix record, and the
// repaired log accepts appends again.
func TestBatchCommitTornTailTorture(t *testing.T) {
	srcDir := t.TempDir()
	recEnds, ins, outs, srcs := buildBatchLog(t, srcDir, 16)
	data, err := os.ReadFile(filepath.Join(srcDir, "wal-000000.seg"))
	if err != nil {
		t.Fatal(err)
	}
	full := int64(len(data))
	if recEnds[len(recEnds)-1] != full {
		t.Fatalf("segment is %d bytes, last record ends at %d", full, recEnds[len(recEnds)-1])
	}
	intact := func(off int64) int {
		k := 0
		for k < len(recEnds) && recEnds[k] <= off {
			k++
		}
		return k
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
		want := intact(off)
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
		// Every 7th offset (and the interesting extremes), run the full
		// crash-resume cycle: Open must truncate the torn tail and accept a
		// fresh batch from the recovery point.
		if off%7 != 0 && off != full-1 && intact(off) != 0 {
			continue
		}
		repairDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(repairDir, "wal-000000.seg"), data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		space := testSpace(t)
		l2, st2, err := Open(repairDir, space)
		if err != nil {
			t.Fatalf("offset %d: Open: %v", off, err)
		}
		more, mouts, msrcs := testRecords(t, space, len(ins)+4)
		var entries []provenance.Entry
		for i := range more {
			if _, known := st2.Lookup(more[i]); known {
				continue
			}
			entries = append(entries, provenance.Entry{Instance: more[i], Outcome: mouts[i], Source: msrcs[i]})
		}
		if _, err := st2.AddBatch(entries); err != nil {
			t.Fatalf("offset %d: append after repair: %v", off, err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := Replay(repairDir, testSpace(t))
		if err != nil {
			t.Fatalf("offset %d: replay after repair: %v", off, err)
		}
		assertStoresEqual(t, st2, re)
	}
}

// TestFailedWriteBreaksLog forces the segment write itself to fail, with a
// file that cannot be trimmed either: the Add must fail and leave the
// store unchanged, every later Add and AddTrial must return the log's
// sticky error, and the directory must replay to exactly the records
// committed before the failure.
func TestFailedWriteBreaksLog(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	ins, outs, srcs := testRecords(t, s, 6)
	fillStore(t, st, ins[:3], outs[:3], srcs[:3])
	l.f.Close() // the next write, and the trim after it, fail
	if err := st.Add(ins[3], outs[3], srcs[3]); err == nil {
		t.Fatal("Add through a failed write succeeded")
	}
	if st.Len() != 3 {
		t.Fatalf("store holds %d records after the failed write, want 3", st.Len())
	}
	if _, ok := st.Lookup(ins[3]); ok {
		t.Fatal("the failed record is queryable")
	}
	if l.broken == nil {
		t.Fatal("an untrimmable write did not break the log")
	}
	if err := st.Add(ins[4], outs[4], srcs[4]); err == nil || !errors.Is(err, l.broken) {
		t.Fatalf("Add after the failure = %v, want the sticky error", err)
	}
	if _, err := st.AddBatch([]provenance.Entry{{Instance: ins[5], Outcome: outs[5], Source: srcs[5]}}); err == nil || !errors.Is(err, l.broken) {
		t.Fatalf("AddBatch after the failure = %v, want the sticky error", err)
	}
	st.SetTrialPolicy(pipeline.FlakyPolicy{MinTrials: 3, MaxTrials: 5, Quorum: 3})
	if _, err := st.AddTrial(ins[5], pipeline.Fail, "executor"); err == nil || !errors.Is(err, l.broken) {
		t.Fatalf("AddTrial after the failure = %v, want the sticky error", err)
	}
	if st.Len() != 3 || st.TrialCount(ins[5]) != 0 {
		t.Fatalf("store changed after the failure: %d records, %d votes", st.Len(), st.TrialCount(ins[5]))
	}
	l.Close() // reports the closed file; the directory lock is released regardless
	got, err := Replay(dir, testSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	assertStoreMatches(t, got, ins[:3], outs[:3], srcs[:3])
}

// TestFailedRotationRollsBack makes the rotation that precedes a write
// fail while the active segment stays intact: the Add fails, the log rolls
// its dictionaries and sequence back and stays usable, and once the
// obstacle is gone the next writes re-emit every dictionary frame the
// failed write had claimed, so the directory replays exactly.
func TestFailedRotationRollsBack(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s, withSegmentSize(1))
	if err != nil {
		t.Fatal(err)
	}
	ins, outs, srcs := testRecords(t, s, 12)
	// Fill the active segment to its threshold, so the next write rotates.
	k := 0
	for ; k < len(ins) && l.size < l.segSize; k++ {
		if err := st.Add(ins[k], outs[k], srcs[k]); err != nil {
			t.Fatal(err)
		}
	}
	if l.size < l.segSize {
		t.Fatal("the records never filled a segment")
	}
	// A file already holding the next segment's name makes its O_EXCL
	// create, and so the rotation, fail. The failing record brings a new
	// dictionary code and a new source, whose frames must not be counted
	// as written.
	next := segPath(dir, l.segIndex+1)
	if err := os.WriteFile(next, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := pipeline.MustInstance(s, pipeline.Ord(999), pipeline.Cat("saga"), pipeline.Ord(1))
	if err := st.Add(fresh, pipeline.Fail, "retry"); err == nil {
		t.Fatal("Add through a failed rotation succeeded")
	}
	if st.Len() != k || l.broken != nil {
		t.Fatalf("after the failed rotation: %d records, broken = %v; want %d and nil", st.Len(), l.broken, k)
	}
	if err := os.Remove(next); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(fresh, pipeline.Fail, "retry"); err != nil {
		t.Fatal(err)
	}
	fillStore(t, st, ins[k:], outs[k:], srcs[k:])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(dir, testSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, st, got)
}

// TestOneWritePerStoreWrite pins the write granularity through the
// provlog_flushes counter: every Add and every AddTrial is one write, and
// one AddBatch is one write however many records it carries.
func TestOneWritePerStoreWrite(t *testing.T) {
	s := testSpace(t)
	reg := telemetry.NewRegistry()
	l, st, err := Open(t.TempDir(), s, WithMetrics(NewMetrics(reg, nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	flushes := func() int64 { return reg.Snapshot().Counters["provlog_flushes"] }
	ins, outs, srcs := testRecords(t, s, 24)
	fillStore(t, st, ins[:8], outs[:8], srcs[:8])
	if got := flushes(); got != 8 {
		t.Fatalf("8 Adds made %d writes", got)
	}
	entries := make([]provenance.Entry, 0, 16)
	for i := 8; i < 24; i++ {
		entries = append(entries, provenance.Entry{Instance: ins[i], Outcome: outs[i], Source: srcs[i]})
	}
	if added, err := st.AddBatch(entries); err != nil || added != 16 {
		t.Fatalf("AddBatch = %d, %v", added, err)
	}
	if got := flushes(); got != 9 {
		t.Fatalf("one AddBatch of 16 records made %d writes", got-8)
	}
	st.SetTrialPolicy(pipeline.FlakyPolicy{MinTrials: 3, MaxTrials: 5, Quorum: 3})
	flaky := pipeline.MustInstance(s, pipeline.Ord(42), pipeline.Cat("saga"), pipeline.Ord(4))
	if res, err := st.AddTrial(flaky, pipeline.Fail, "executor"); err != nil || res.Discarded {
		t.Fatalf("AddTrial = %+v, %v", res, err)
	}
	if got := flushes(); got != 10 {
		t.Fatalf("one AddTrial made %d writes", got-9)
	}
}
