package exec

import (
	"context"
	"sync"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/provlog"
)

func durableSpace() *pipeline.Space {
	return pipeline.MustSpace(
		pipeline.Parameter{Name: "x", Kind: pipeline.Ordinal,
			Domain: []pipeline.Value{pipeline.Ord(1), pipeline.Ord(2), pipeline.Ord(3)}},
		pipeline.Parameter{Name: "mode", Kind: pipeline.Categorical,
			Domain: []pipeline.Value{pipeline.Cat("fast"), pipeline.Cat("safe")}},
	)
}

// openDurable builds an executor over the store provlog.Open replays from
// dir, the way a durable session composes the two, and returns the log for
// the caller to checkpoint and close.
func openDurable(t *testing.T, dir string, space *pipeline.Space, oracle Oracle, logOpts []provlog.Option, opts ...Option) (*Executor, *provlog.Log) {
	t.Helper()
	l, st, err := provlog.Open(dir, space, logOpts...)
	if err != nil {
		t.Fatal(err)
	}
	return New(oracle, st, opts...), l
}

// callCounter counts oracle invocations per instance across executor
// lifetimes (keys are canonical, so they survive space reconstruction).
type callCounter struct {
	mu    sync.Mutex
	calls map[string]int
}

func (c *callCounter) oracle() Oracle {
	return OracleFunc(func(_ context.Context, in pipeline.Instance) (pipeline.Outcome, error) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.calls[in.Key()]++
		if x, _ := in.ByName("x"); x.Num() == 3 {
			return pipeline.Fail, nil
		}
		return pipeline.Succeed, nil
	})
}

func (c *callCounter) max() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := 0
	for _, n := range c.calls {
		if n > m {
			m = n
		}
	}
	return m
}

// TestNewDurableResume evaluates a set of instances, drops the executor,
// and builds a second one over the same state dir's replayed store: every
// evaluation must be served from the replayed log, with zero repeated
// oracle calls and zero budget spent.
func TestNewDurableResume(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	counter := &callCounter{calls: make(map[string]int)}

	s1 := durableSpace()
	e1, l1 := openDurable(t, dir, s1, counter.oracle(), nil)
	var keys []string
	for _, x := range s1.Domain("x") {
		for _, m := range s1.Domain("mode") {
			in := pipeline.MustInstance(s1, x, m)
			if _, err := e1.Evaluate(ctx, in); err != nil {
				t.Fatal(err)
			}
			keys = append(keys, in.Key())
		}
	}
	if e1.Spent() != len(keys) {
		t.Fatalf("first run spent %d, want %d", e1.Spent(), len(keys))
	}
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := durableSpace()
	e2, l2 := openDurable(t, dir, s2, counter.oracle(), nil)
	defer l2.Close()
	if e2.Store().Len() != len(keys) {
		t.Fatalf("replayed store has %d records, want %d", e2.Store().Len(), len(keys))
	}
	for _, x := range s2.Domain("x") {
		for _, m := range s2.Domain("mode") {
			out, err := e2.Evaluate(ctx, pipeline.MustInstance(s2, x, m))
			if err != nil {
				t.Fatal(err)
			}
			want := pipeline.Succeed
			if x.Num() == 3 {
				want = pipeline.Fail
			}
			if out != want {
				t.Fatalf("resumed Evaluate(%v, %v) = %v, want %v", x, m, out, want)
			}
		}
	}
	if e2.Spent() != 0 {
		t.Fatalf("resumed run spent %d executions, want 0", e2.Spent())
	}
	if got := counter.max(); got != 1 {
		t.Fatalf("an instance reached the oracle %d times, want at most once", got)
	}
}

// TestNewDurableCheckpointResume checkpoints the log mid-session — a
// Log.Sync, since the WAL is the whole state — and resumes twice more:
// every previously evaluated instance must be served from the replayed
// provenance with zero repeated oracle calls, and instances evaluated
// after the checkpoint must survive too.
func TestNewDurableCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	counter := &callCounter{calls: make(map[string]int)}

	s1 := durableSpace()
	e1, l1 := openDurable(t, dir, s1, counter.oracle(), nil)
	if err := l1.Sync(); err != nil {
		t.Fatal(err) // an empty-log checkpoint must be a clean no-op
	}
	var all []pipeline.Instance
	for _, x := range s1.Domain("x") {
		for _, m := range s1.Domain("mode") {
			all = append(all, pipeline.MustInstance(s1, x, m))
		}
	}
	half := len(all) / 2
	for _, in := range all[:half] {
		if _, err := e1.Evaluate(ctx, in); err != nil {
			t.Fatal(err)
		}
	}
	if err := l1.Sync(); err != nil {
		t.Fatal(err)
	}
	// Evaluations landing after the checkpoint.
	for _, in := range all[half:] {
		if _, err := e1.Evaluate(ctx, in); err != nil {
			t.Fatal(err)
		}
	}
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 2; round++ {
		s2 := durableSpace()
		e2, l2 := openDurable(t, dir, s2, counter.oracle(), nil)
		if e2.Store().Len() != len(all) {
			t.Fatalf("round %d: store has %d records, want %d", round, e2.Store().Len(), len(all))
		}
		for _, x := range s2.Domain("x") {
			for _, m := range s2.Domain("mode") {
				if _, err := e2.Evaluate(ctx, pipeline.MustInstance(s2, x, m)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if e2.Spent() != 0 {
			t.Fatalf("round %d: resumed run spent %d executions, want 0", round, e2.Spent())
		}
		if round == 0 {
			// Checkpoint again on resume, so the second round replays a
			// log that was itself resumed and synced.
			if err := l2.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := counter.max(); got != 1 {
		t.Fatalf("an instance reached the oracle %d times, want at most once", got)
	}
	if got := e1.Store(); got != nil && got.Len() != len(all) {
		t.Fatalf("store drifted to %d records", got.Len())
	}
}
