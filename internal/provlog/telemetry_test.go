package provlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/telemetry"
)

func TestMetricsFlushAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	reg := telemetry.NewRegistry()
	var jbuf bytes.Buffer
	met := NewMetrics(reg, telemetry.NewJournal(&jbuf))
	// A tiny segment forces rotations; WithSync exercises the
	// fsync-latency histogram.
	l, st, err := Open(dir, s, withSegmentSize(256), WithSync(true), WithMetrics(met))
	if err != nil {
		t.Fatal(err)
	}
	ins, outs, srcs := testRecords(t, s, 20)
	fillStore(t, st, ins, outs, srcs)

	snap := reg.Snapshot()
	flushes := snap.Counters["provlog_flushes"]
	if flushes == 0 {
		t.Fatal("no flushes counted")
	}
	wr := snap.Histograms["provlog_write_recs"]
	if wr.Count != flushes {
		t.Errorf("write histogram count %d != flushes %d", wr.Count, flushes)
	}
	if wr.Sum != int64(len(ins)) {
		t.Errorf("write record sum %d != records appended %d", wr.Sum, len(ins))
	}
	if snap.Counters["provlog_bytes_appended"] == 0 {
		t.Error("no bytes counted")
	}
	if fs := snap.Histograms["provlog_fsync_ns"]; fs.Count != flushes {
		t.Errorf("fsync histogram count %d != flushes %d", fs.Count, flushes)
	}

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The journal carries one wal_flush span per flush.
	counts := map[string]int{}
	sc := bufio.NewScanner(bytes.NewReader(jbuf.Bytes()))
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("journal line not JSON: %v: %q", err, sc.Text())
		}
		counts[m["ev"].(string)]++
	}
	if int64(counts["wal_flush"]) != flushes {
		t.Errorf("journal wal_flush = %d, want %d", counts["wal_flush"], flushes)
	}
}

func TestNilMetricsLogUnchanged(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s, WithMetrics(nil))
	if err != nil {
		t.Fatal(err)
	}
	ins, outs, srcs := testRecords(t, s, 5)
	fillStore(t, st, ins, outs, srcs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(dir, testSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, st, got)
}
