package bugdoc_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/bugdoc"
	"repro/internal/provlog"
)

func durabilitySpace() *bugdoc.Space {
	return bugdoc.MustSpace(
		bugdoc.Parameter{Name: "lr", Kind: bugdoc.Ordinal,
			Domain: []bugdoc.Value{bugdoc.Ord(0.01), bugdoc.Ord(0.1), bugdoc.Ord(1)}},
		bugdoc.Parameter{Name: "opt", Kind: bugdoc.Categorical,
			Domain: []bugdoc.Value{bugdoc.Cat("adam"), bugdoc.Cat("bad"), bugdoc.Cat("sgd")}},
		bugdoc.Parameter{Name: "depth", Kind: bugdoc.Ordinal,
			Domain: []bugdoc.Value{bugdoc.Ord(1), bugdoc.Ord(2)}},
	)
}

// killableOracle counts per-instance oracle calls across sessions and
// simulates a process kill by erroring once its quota runs out. The pipeline
// fails exactly when opt = "bad".
type killableOracle struct {
	mu    sync.Mutex
	calls map[string]int
	quota int // remaining calls before the simulated kill; < 0 = unlimited
}

var errKilled = errors.New("simulated kill")

func (o *killableOracle) oracle() bugdoc.Oracle {
	return bugdoc.OracleFunc(func(_ context.Context, in bugdoc.Instance) (bugdoc.Outcome, error) {
		o.mu.Lock()
		defer o.mu.Unlock()
		if o.quota == 0 {
			return 0, errKilled
		}
		if o.quota > 0 {
			o.quota--
		}
		o.calls[in.Key()]++
		if opt, _ := in.ByName("opt"); opt.Str() == "bad" {
			return bugdoc.Fail, nil
		}
		return bugdoc.Succeed, nil
	})
}

func (o *killableOracle) maxCalls() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	m := 0
	for _, n := range o.calls {
		if n > m {
			m = n
		}
	}
	return m
}

// TestDurableSessionKillAndResume runs a durable session until a simulated
// kill mid-search, then resumes it from the state directory: the resumed
// session must complete the search without a single repeated oracle call
// for the instances the first run already paid for.
func TestDurableSessionKillAndResume(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	o := &killableOracle{calls: make(map[string]int), quota: 6}

	s1, err := bugdoc.NewSession(durabilitySpace(), o.oracle(),
		bugdoc.WithDurability(dir), bugdoc.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	err = s1.Seed(ctx)
	if err == nil {
		_, err = s1.FindAll(ctx, bugdoc.DebuggingDecisionTrees)
	}
	if !errors.Is(err, errKilled) {
		t.Fatalf("first run was not killed mid-search: err = %v", err)
	}
	logged := s1.Store().Len()
	if logged == 0 {
		t.Fatal("kill happened before anything was logged; raise the quota")
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	o.quota = -1 // the resumed process runs unconstrained
	s2, err := bugdoc.ResumeSession(dir, o.oracle(), bugdoc.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Store().Len() != logged {
		t.Fatalf("resumed store has %d records, want the %d logged before the kill",
			s2.Store().Len(), logged)
	}
	if err := s2.Seed(ctx); err != nil {
		t.Fatal(err)
	}
	causes, err := s2.FindAll(ctx, bugdoc.DebuggingDecisionTrees)
	if err != nil {
		t.Fatal(err)
	}
	if len(causes) != 1 || !strings.Contains(causes.String(), `"bad"`) {
		t.Fatalf("resumed FindAll = %v, want the single root cause opt = \"bad\"", causes)
	}
	if got := o.maxCalls(); got != 1 {
		t.Fatalf("an instance reached the oracle %d times across the kill/resume cycle, want at most once", got)
	}
}

// TestResumeSessionRequiresState documents the failure mode for a missing
// state directory.
func TestResumeSessionRequiresState(t *testing.T) {
	o := &killableOracle{calls: make(map[string]int), quota: -1}
	if _, err := bugdoc.ResumeSession(t.TempDir(), o.oracle()); err == nil {
		t.Fatal("ResumeSession of an empty directory succeeded")
	}
}

// TestDurableSessionCompletedRunReplaysFree re-opens a session that already
// finished: the whole search replays from the log and the oracle is never
// consulted again.
func TestDurableSessionCompletedRunReplaysFree(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	o := &killableOracle{calls: make(map[string]int), quota: -1}

	s1, err := bugdoc.NewSession(durabilitySpace(), o.oracle(),
		bugdoc.WithDurability(dir), bugdoc.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Seed(ctx); err != nil {
		t.Fatal(err)
	}
	want, err := s1.FindAll(ctx, bugdoc.DebuggingDecisionTrees)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	paid := len(o.calls)

	o.quota = 0 // any oracle call in the resumed run is a test failure
	s2, err := bugdoc.ResumeSession(dir, o.oracle(), bugdoc.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Seed(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := s2.FindAll(ctx, bugdoc.DebuggingDecisionTrees)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("resumed FindAll = %v, first run found %v", got, want)
	}
	if len(o.calls) != paid {
		t.Fatalf("resumed run executed %d new instances, want 0", len(o.calls)-paid)
	}
}

// TestSessionCheckpointResume pins Checkpoint's contract: it fsyncs the
// durable session's log, which is its whole state, so after a search the
// directory holds only WAL segments, space.json and the lock file. A
// resumed session restores every record, and repeating the search spends
// nothing and finds the same causes. Checkpoint fails without durability
// and after Close.
func TestSessionCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	oracle := &killableOracle{calls: make(map[string]int), quota: -1}

	s1, err := bugdoc.NewSession(durabilitySpace(), oracle.oracle(),
		bugdoc.WithDurability(dir), bugdoc.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Seed(ctx); err != nil {
		t.Fatal(err)
	}
	causes, err := s1.FindOne(ctx, bugdoc.DebuggingDecisionTrees)
	if err != nil {
		t.Fatal(err)
	}
	if len(causes) == 0 {
		t.Fatal("first run asserted no root cause")
	}
	spent := s1.Spent()
	if spent == 0 {
		t.Fatal("first run executed nothing")
	}
	if err := s1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if name := e.Name(); name != "space.json" && name != "wal.lock" &&
			!(strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg")) {
			t.Fatalf("state directory holds %s after Checkpoint", name)
		}
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s1.Checkpoint(); err == nil {
		t.Fatal("Checkpoint after Close succeeded")
	}

	s2, err := bugdoc.ResumeSession(dir, oracle.oracle(), bugdoc.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Store().Len() != spent {
		t.Fatalf("resumed store has %d records, want %d", s2.Store().Len(), spent)
	}
	again, err := s2.FindOne(ctx, bugdoc.DebuggingDecisionTrees)
	if err != nil {
		t.Fatal(err)
	}
	if again.String() != causes.String() {
		t.Fatalf("resumed FindOne found %v, want %v", again, causes)
	}
	if s2.Spent() != 0 {
		t.Fatalf("resumed FindOne spent %d new executions, want 0", s2.Spent())
	}
	if got := oracle.maxCalls(); got != 1 {
		t.Fatalf("an instance reached the oracle %d times across the resume, want at most once", got)
	}

	// A session without WithDurability has no log: Checkpoint refuses
	// instead of silently doing nothing, and Close is a no-op.
	volatile, err := bugdoc.NewSession(durabilitySpace(), oracle.oracle())
	if err != nil {
		t.Fatal(err)
	}
	if err := volatile.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on a session without durability succeeded")
	}
	if err := volatile.Close(); err != nil {
		t.Fatalf("Close on a session without durability: %v", err)
	}
}

// historyRecords returns n distinct records (n <= 1200) of a 3 × 20 × 20
// space, mostly succeeding.
func historyRecords(n int) (*bugdoc.Space, []bugdoc.Record) {
	ords := func(k int) []bugdoc.Value {
		vals := make([]bugdoc.Value, k)
		for i := range vals {
			vals[i] = bugdoc.Ord(float64(i))
		}
		return vals
	}
	space := bugdoc.MustSpace(
		bugdoc.Parameter{Name: "a", Kind: bugdoc.Ordinal, Domain: ords(3)},
		bugdoc.Parameter{Name: "b", Kind: bugdoc.Ordinal, Domain: ords(20)},
		bugdoc.Parameter{Name: "c", Kind: bugdoc.Ordinal, Domain: ords(20)},
	)
	hist := make([]bugdoc.Record, n)
	for i := range hist {
		in := bugdoc.MustInstance(space, bugdoc.Ord(float64(i/400)), bugdoc.Ord(float64(i/20%20)), bugdoc.Ord(float64(i%20)))
		out := bugdoc.Succeed
		if i%400 == 7 {
			out = bugdoc.Fail
		}
		hist[i] = bugdoc.Record{Instance: in, Outcome: out, Source: "log"}
	}
	return space, hist
}

// TestDurableHistoryIsOneWrite pins the history ingest of a durable
// session: a 1000-record history is logged with one WAL write, in exactly
// the bytes per-record Adds through the log would write, and a resume
// over the same history writes nothing more.
func TestDurableHistoryIsOneWrite(t *testing.T) {
	space, hist := historyRecords(1000)
	oracle := bugdoc.OracleFunc(func(context.Context, bugdoc.Instance) (bugdoc.Outcome, error) {
		return bugdoc.Succeed, nil
	})
	dir := t.TempDir()
	reg := bugdoc.NewRegistry()
	s, err := bugdoc.NewSession(space, oracle, bugdoc.WithDurability(dir),
		bugdoc.WithHistory(hist), bugdoc.WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if flushes := reg.Snapshot().Counters["provlog_flushes"]; flushes != 1 {
		t.Fatalf("history ingest took %d WAL writes, want 1", flushes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	perRecord := t.TempDir()
	l, st, err := provlog.Open(perRecord, space)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range hist {
		if err := st.Add(r.Instance, r.Outcome, r.Source); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "wal-000000.seg"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(perRecord, "wal-000000.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the session's WAL (%d bytes) differs from per-record Adds' (%d bytes)", len(got), len(want))
	}

	reg = bugdoc.NewRegistry()
	s, err = bugdoc.NewSession(space, oracle, bugdoc.WithDurability(dir),
		bugdoc.WithHistory(hist), bugdoc.WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n, flushes := s.Store().Len(), reg.Snapshot().Counters["provlog_flushes"]; n != len(hist) || flushes != 0 {
		t.Fatalf("resume over the logged history holds %d records after %d writes; want %d and 0", n, flushes, len(hist))
	}
}
