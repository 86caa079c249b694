// Package exec is BugDoc's execution engine: it runs pipeline instances
// through a black-box Oracle, memoizes results in a provenance store,
// enforces an execution budget (the paper's cost measure is the number of
// *new* instances executed), and dispatches independent instances across a
// pool of workers (Section 4.3, "each pipeline instance is independent;
// hence different instances can be run in parallel").
//
// Every evaluation takes one path. Evaluate serves a memoized instance
// from the store and sends a miss through EvaluateBatch as a set of one.
// EvaluateBatch dedupes a hypothesis set against memoized history (and
// against itself), claims budget deterministically in input order, runs
// the misses on the calling goroutine and up to workers−1 more, and
// commits every result through one provenance batch append, so a round
// over a durable store costs one log write (one fsync) instead of one per
// record.
//
// The executor owns no storage. A durable session opens its write-ahead
// log with internal/provlog and builds the executor over the store the
// log returns (see docs/ARCHITECTURE.md for how the layers fit together).
package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pipeline"
	"repro/internal/provenance"
	"repro/internal/telemetry"
)

// Oracle runs one pipeline instance and evaluates its result (the
// composition of executing CP_i and applying the evaluation procedure E of
// Definition 2). Implementations must be safe for concurrent use.
type Oracle interface {
	Run(ctx context.Context, in pipeline.Instance) (pipeline.Outcome, error)
}

// OracleFunc adapts a function to the Oracle interface.
type OracleFunc func(ctx context.Context, in pipeline.Instance) (pipeline.Outcome, error)

// Run implements Oracle.
func (f OracleFunc) Run(ctx context.Context, in pipeline.Instance) (pipeline.Outcome, error) {
	return f(ctx, in)
}

// ErrBudgetExhausted is returned when evaluating an instance would exceed
// the executor's budget of new executions.
var ErrBudgetExhausted = errors.New("exec: instance budget exhausted")

// ErrUnknownInstance is returned by replay-only oracles (historical logs)
// for instances that were never recorded; algorithms treat it as "this
// hypothesis cannot be tested" and move on, matching the paper's DBSherlock
// methodology ("an early stop when the pipeline instance to be tested was
// not present").
var ErrUnknownInstance = errors.New("exec: instance not present in historical data")

// Option configures an Executor.
type Option func(*Executor)

// WithBudget caps the number of new instance executions; n < 0 means
// unlimited. Instances already in the provenance store are free.
func WithBudget(n int) Option {
	return func(e *Executor) { e.budget = n }
}

// WithWorkers sets the size of the parallel dispatch pool (minimum 1).
func WithWorkers(n int) Option {
	return func(e *Executor) {
		if n < 1 {
			n = 1
		}
		e.workers = n
	}
}

// FlakyPolicy configures quorum outcome resolution for non-deterministic
// oracles (see pipeline.FlakyPolicy): how many trials to dispatch per
// instance and how many agreeing votes resolve it. The zero value keeps
// the deterministic single-trial path.
type FlakyPolicy = pipeline.FlakyPolicy

// WithFlakyPolicy makes the executor treat the oracle as non-deterministic:
// every un-memoized instance is re-dispatched until the policy's quorum
// resolves (majority vote; an exact tie at the trial cap records
// pipeline.OutcomeInconclusive). Each trial consumes one budget unit and is
// write-ahead logged individually when the store has a log, so a killed run
// resumes mid-quorum with its accumulated votes. A disabled policy
// (MaxTrials <= 1, including the zero value) is the deterministic fast
// path: the executor behaves byte-for-byte as without the option.
func WithFlakyPolicy(p FlakyPolicy) Option {
	return func(e *Executor) { e.flaky = p }
}

// Executor mediates every instance execution for the debugging algorithms.
// It is safe for concurrent use.
type Executor struct {
	oracle  Oracle
	store   *provenance.Store
	workers int
	tel     *Telemetry  // nil when uninstrumented (the fast path)
	flaky   FlakyPolicy // quorum policy; zero value = deterministic path

	mu     sync.Mutex
	budget int // remaining new executions; negative = unlimited
	spent  int
}

// New builds an executor over the oracle and provenance store. The store
// may be pre-populated with the previously-run instances G = CP_1..CP_k;
// those evaluations are served from provenance without consuming budget.
func New(oracle Oracle, store *provenance.Store, opts ...Option) *Executor {
	e := &Executor{oracle: oracle, store: store, workers: 1, budget: -1}
	for _, o := range opts {
		o(e)
	}
	if e.flaky.Enabled() {
		if err := e.flaky.Validate(); err != nil {
			panic(fmt.Sprintf("exec: %v", err))
		}
		// The vote ledger lives in the store so its bitset algebra and
		// memoization see only resolved outcomes; the policy must be
		// attached before the first trial. A store opened from a log has
		// already replayed any partial quorums into the ledger.
		store.SetTrialPolicy(e.flaky)
	}
	if e.tel != nil {
		// The store's record count, read at snapshot time: the executor
		// owns the evaluation session, so registering it here keeps one
		// WithTelemetry option the single switch for the whole stack.
		e.tel.reg.GaugeFunc("provenance_records", func() int64 { return int64(store.Len()) })
	}
	return e
}

// Store returns the provenance store backing the executor.
func (e *Executor) Store() *provenance.Store { return e.store }

// Spent returns the number of new instance executions so far.
func (e *Executor) Spent() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.spent
}

// Remaining returns the remaining budget and whether it is bounded.
func (e *Executor) Remaining() (int, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.budget < 0 {
		return 0, false
	}
	return e.budget, true
}

// reserve atomically claims budget for one new execution.
func (e *Executor) reserve() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.budget == 0 {
		return ErrBudgetExhausted
	}
	if e.budget > 0 {
		e.budget--
	}
	e.spent++
	e.tel.budget(e.spent, e.budget, e.budget >= 0)
	return nil
}

// release returns one reserved unit (the oracle failed, nothing recorded).
func (e *Executor) release() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.budget >= 0 {
		e.budget++
	}
	e.spent--
	e.tel.budget(e.spent, e.budget, e.budget >= 0)
}

// Evaluate returns the outcome of one instance: from provenance when
// already known, otherwise by running the oracle (consuming budget) and
// recording the result. Evaluation is deterministic per Definition 2, so
// memoization is sound. A miss is evaluated as a set of one by
// EvaluateBatch, so it takes the same budget, dispatch and commit path as
// every other instance.
//
//bugdoc:hotpath
func (e *Executor) Evaluate(ctx context.Context, in pipeline.Instance) (pipeline.Outcome, error) {
	if out, ok := e.store.Lookup(in); ok {
		if t := e.tel; t != nil {
			t.memoHits.Inc()
		}
		return out, nil
	}
	r := e.EvaluateBatch(ctx, []pipeline.Instance{in})[0]
	return r.Outcome, r.Err
}

// evaluateFlaky resolves one instance under the flaky policy: it runs the
// oracle once per trial and records each verdict as a durable vote until
// the quorum resolves; the resolved outcome is then committed as the
// instance's single provenance record. Before each trial it asks the
// store whether the outcome is already settled — by a committed record or
// by recorded votes, such as the ones a resumed session replayed — so no
// trial is paid for once the votes decide. Entered holding one budget
// reservation (for the first trial); each further trial reserves its own
// unit, and every recorded vote consumes its reservation permanently.
//
// EvaluateBatch never dispatches one instance twice in a round, so a
// trial normally runs alone on its instance. A caller racing another on
// one instance stays correct: the ledger refuses votes once the tallies
// resolve, so recorded votes never exceed MaxTrials and every resolver
// commits the same outcome. The racer's extra trials stay paid, like the
// duplicate runs commitBatch skips.
func (e *Executor) evaluateFlaky(ctx context.Context, in pipeline.Instance) (pipeline.Outcome, error) {
	held := true // one reservation claimed by the caller
	for {
		if out, ok := e.store.Lookup(in); ok {
			if held {
				e.release()
			}
			if t := e.tel; t != nil {
				t.memoHits.Inc()
			}
			return out, nil
		}
		if out, ok := e.store.TrialOutcome(in); ok {
			if held {
				e.release()
			}
			return e.finishQuorum(in, out)
		}
		if !held {
			if err := e.reserve(); err != nil {
				return pipeline.OutcomeUnknown, err
			}
			held = true
		}
		if err := ctx.Err(); err != nil {
			e.release()
			return pipeline.OutcomeUnknown, err
		}
		out, err := e.runOracle(ctx, in)
		if err != nil {
			e.release()
			return pipeline.OutcomeUnknown, err
		}
		res, err := e.store.AddTrial(in, out, "executor")
		if err != nil {
			e.release()
			return pipeline.OutcomeUnknown, err
		}
		held = false // vote recorded (or discarded post-resolution): unit spent
		if res.Resolved {
			return e.finishQuorum(in, res.Outcome)
		}
	}
}

// finishQuorum publishes a resolved flaky outcome as the instance's
// provenance record. Concurrent resolvers race to Add; exactly one wins
// and the rest adopt its record — identical by the vote-refusal
// invariant (the ledger stops accepting votes once resolution holds, so
// every resolver computes the same outcome). The winner observes the
// instance's trial count in the telemetry histogram, counting each
// quorum once.
func (e *Executor) finishQuorum(in pipeline.Instance, out pipeline.Outcome) (pipeline.Outcome, error) {
	if err := e.store.Add(in, out, "executor"); err != nil {
		if prev, ok := e.store.Lookup(in); ok {
			return prev, nil
		}
		return pipeline.OutcomeUnknown, err
	}
	if t := e.tel; t != nil {
		t.quorum(in, out, e.store.TrialCount(in))
	}
	return out, nil
}

// runReserved runs the oracle for an instance whose budget is already
// reserved, refunding the reservation on failure — or when the instance
// turned out to be memoized between the reservation and the run (a
// concurrent evaluation won; nothing was executed).
func (e *Executor) runReserved(ctx context.Context, in pipeline.Instance) (pipeline.Outcome, error) {
	if out, ok := e.store.Lookup(in); ok {
		e.release()
		if t := e.tel; t != nil {
			t.memoHits.Inc()
		}
		return out, nil
	}
	out, err := e.runOracle(ctx, in)
	if err != nil {
		e.release()
		return pipeline.OutcomeUnknown, err
	}
	return out, nil
}

// runOracle invokes the oracle once and validates its verdict, wrapping
// the call in trial telemetry. It does not touch budget or memoization —
// callers own the reservation lifecycle.
func (e *Executor) runOracle(ctx context.Context, in pipeline.Instance) (pipeline.Outcome, error) {
	t := e.tel
	var start time.Time
	if t != nil {
		start = t.trialStart(in)
	}
	out, err := e.oracle.Run(ctx, in)
	if err == nil && out != pipeline.Succeed && out != pipeline.Fail {
		err = fmt.Errorf("exec: oracle returned %v for %v", out, in)
	} else if err != nil {
		err = fmt.Errorf("exec: run %v: %w", in, err)
	}
	if t != nil {
		t.trialEnd(in, out, err, start)
	}
	return out, err
}

// Result pairs an instance with its evaluation or error from
// EvaluateBatch.
type Result struct {
	Instance pipeline.Instance
	Outcome  pipeline.Outcome
	Err      error
}

// EvaluateBatch evaluates a hypothesis set concurrently on the worker
// pool and returns results in input order. It dedupes the set against
// memoized history (and against itself) up front, claims budget in input
// order, dispatches the misses across the workers, and commits all results
// through a single provenance.Store.AddBatch — one store write-lock
// acquisition and one sink append, so a store with a log pays one log
// write (one fsync) per round instead of one per record. Results become
// queryable, and durable, together at the end of the batch, so a crash
// mid-batch re-executes the whole round. Individual failures (budget
// exhaustion, unknown historical instances, oracle errors) are reported
// per-result so callers can use partial information.
//
// Partial results under budget exhaustion are deterministic: memoized
// instances are free, and the remaining budget is claimed in input order
// before any dispatch, so with budget for k new executions exactly the
// first k distinct un-memoized instances run and every later one reports
// ErrBudgetExhausted — regardless of worker scheduling. Budget refunded by
// a failing run funds later calls, not later instances of this set. A
// duplicate of an earlier instance in the set reports that instance's
// result instead of being dispatched twice.
//
// Under a flaky policy each instance resolves its quorum and commits its
// record as soon as it resolves, instead of at the end of the batch.
func (e *Executor) EvaluateBatch(ctx context.Context, ins []pipeline.Instance) []Result {
	results := make([]Result, len(ins))
	run, dupOf := e.planSet(ctx, ins, results)
	e.tel.batchDispatch(len(ins), len(run), len(dupOf), !e.flaky.Enabled())
	e.dispatch(ctx, ins, run, results)
	if !e.flaky.Enabled() {
		e.commitBatch(ins, run, results)
	}
	for i, j := range dupOf {
		results[i].Outcome, results[i].Err = results[j].Outcome, results[j].Err
	}
	return results
}

// dispatch evaluates the instances at indices run of ins and writes each
// result to its index of results. The calling goroutine is one of
// min(workers, len(run)) workers, and each worker takes the next index
// from one shared counter until none is left. A round with one worker, or
// one instance, runs inline and needs neither the counter nor a
// WaitGroup. The queue-depth gauge counts the dispatched instances no
// worker has taken yet.
func (e *Executor) dispatch(ctx context.Context, ins []pipeline.Instance, run []int, results []Result) {
	var queue *telemetry.Gauge
	if e.tel != nil {
		queue = e.tel.queueDepth
	}
	queue.Add(int64(len(run)))
	if min(e.workers, len(run)) <= 1 {
		for _, i := range run {
			queue.Add(-1)
			results[i].Outcome, results[i].Err = e.runOne(ctx, ins[i])
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			k := int(next.Add(1)) - 1
			if k >= len(run) {
				return
			}
			queue.Add(-1)
			i := run[k]
			results[i].Outcome, results[i].Err = e.runOne(ctx, ins[i])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(e.workers, len(run)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// runOne is dispatch's per-instance step: it evaluates one instance whose
// budget planSet reserved.
func (e *Executor) runOne(ctx context.Context, in pipeline.Instance) (pipeline.Outcome, error) {
	if e.flaky.Enabled() {
		// Quorum resolution commits per instance: every vote is already
		// its own log write, so batching the final records would only
		// delay resolution visibility.
		return e.evaluateFlaky(ctx, in)
	}
	return e.runReserved(ctx, in)
}

// planSet resolves memoized hits and intra-set duplicates and claims
// budget for the misses in input order. It fills results for everything it
// resolves and returns the indices to dispatch plus the duplicate mapping.
// The map that finds duplicates among the misses is made only when a miss
// arrives after another has been claimed, so a set of one allocates none.
func (e *Executor) planSet(ctx context.Context, ins []pipeline.Instance, results []Result) (run []int, dupOf map[int]int) {
	t := e.tel
	var firstAt *pipeline.InstanceMap[int32] // each claimed miss's index in ins
	for i, in := range ins {
		results[i].Instance = in
		if out, ok := e.store.Lookup(in); ok {
			if t != nil {
				t.memoHits.Inc()
			}
			results[i].Outcome = out
			continue
		}
		if len(run) > 0 {
			if firstAt == nil {
				firstAt = pipeline.NewInstanceMap[int32](len(ins))
				firstAt.Put(ins[run[0]], int32(run[0]))
			}
			if j, seen := firstAt.Get(in); seen {
				if t != nil {
					t.dedupDrops.Inc()
				}
				if dupOf == nil {
					dupOf = make(map[int]int)
				}
				dupOf[i] = int(j)
				continue
			}
		}
		if t != nil {
			t.memoMisses.Inc()
		}
		if err := ctx.Err(); err != nil {
			results[i].Outcome, results[i].Err = pipeline.OutcomeUnknown, err
			continue
		}
		if err := e.reserve(); err != nil {
			results[i].Outcome, results[i].Err = pipeline.OutcomeUnknown, err
			continue
		}
		if firstAt != nil {
			firstAt.Put(in, int32(i))
		}
		run = append(run, i)
	}
	return run, dupOf
}

// commitOnStack is the number of records commitBatch builds without a
// heap allocation.
const commitOnStack = 16

// commitBatch records every successful oracle run of the round through one
// AddBatch; planSet listed each instance once. Records the store skipped
// as already recorded (a concurrent evaluation won the race) keep their
// results — the recorded outcome is identical by determinism. If the
// batch commit fails, results whose record did not reach the store report
// the error and their budget is refunded: an unrecorded execution must
// not be treated as provenance.
//
// AddBatch copies the records into the log and keeps no reference to its
// argument, so a round of up to commitOnStack records builds them in an
// array on the stack: Shortcut's rounds hold one record, and DDT's at most
// its MaxSuspectTests, 8 by default. A longer round grows the slice onto
// the heap.
func (e *Executor) commitBatch(ins []pipeline.Instance, run []int, results []Result) {
	var buf [commitOnStack]provenance.Record
	recs := buf[:0]
	for _, i := range run {
		if results[i].Err == nil {
			recs = append(recs, provenance.Record{
				Instance: ins[i], Outcome: results[i].Outcome, Source: "executor",
			})
		}
	}
	if len(recs) == 0 {
		return
	}
	if _, err := e.store.AddBatch(recs); err != nil {
		for _, i := range run {
			if results[i].Err != nil {
				continue // not in the batch
			}
			if _, ok := e.store.Lookup(ins[i]); !ok {
				results[i].Outcome = pipeline.OutcomeUnknown
				results[i].Err = err
				e.release()
			}
		}
	}
}

// LatencyOracle wraps an oracle with a fixed per-run latency, simulating
// expensive pipeline executions (the paper's real pipelines take 20 minutes
// to 10 hours per instance); it drives the parallel scalability experiment.
func LatencyOracle(o Oracle, d time.Duration) Oracle {
	return OracleFunc(func(ctx context.Context, in pipeline.Instance) (pipeline.Outcome, error) {
		select {
		case <-ctx.Done():
			return pipeline.OutcomeUnknown, ctx.Err()
		case <-time.After(d):
		}
		return o.Run(ctx, in)
	})
}

// HistoricalOracle replays a fixed instance→outcome mapping and returns
// ErrUnknownInstance for anything else. It models datasets where new
// pipeline instances cannot be executed (DBSherlock logs, Section 5.3).
// Replay lookups probe the instances' precomputed hashes and compare
// interned code vectors, so they allocate nothing.
type HistoricalOracle struct {
	outcomes *pipeline.InstanceMap[pipeline.Outcome]
}

// NewHistoricalOracle builds a replay oracle from instances and outcomes.
// A repeated instance overwrites its earlier outcome (last wins).
func NewHistoricalOracle(ins []pipeline.Instance, outs []pipeline.Outcome) (*HistoricalOracle, error) {
	if len(ins) != len(outs) {
		return nil, fmt.Errorf("exec: %d instances but %d outcomes", len(ins), len(outs))
	}
	m := pipeline.NewInstanceMap[pipeline.Outcome](len(ins))
	for i, in := range ins {
		m.Put(in, outs[i])
	}
	return &HistoricalOracle{outcomes: m}, nil
}

// Run implements Oracle.
func (h *HistoricalOracle) Run(_ context.Context, in pipeline.Instance) (pipeline.Outcome, error) {
	out, ok := h.outcomes.Get(in)
	if !ok {
		return pipeline.OutcomeUnknown, ErrUnknownInstance
	}
	return out, nil
}

// Len returns the number of replayable instances.
func (h *HistoricalOracle) Len() int { return h.outcomes.Len() }
