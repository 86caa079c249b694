// Package bugdoc is the public API of this BugDoc reproduction (Lourenço,
// Freire, Shasha: "BugDoc: Algorithms to Debug Computational Processes",
// SIGMOD 2020). It finds minimal definitive root causes of failures in
// black-box computational pipelines by analyzing previously-run instances
// and selectively executing new ones.
//
// The core workflow:
//
//	space := bugdoc.MustSpace(
//	    bugdoc.Parameter{Name: "estimator", Kind: bugdoc.Categorical, Domain: ...},
//	    ...)
//	session, err := bugdoc.NewSession(space, oracle,
//	    bugdoc.WithWorkers(4), bugdoc.WithBudget(100))
//	causes, err := session.FindAll(ctx, bugdoc.DebuggingDecisionTrees)
//
// An Oracle runs one pipeline instance and reports Succeed or Fail; the
// Session memoizes every execution in a provenance store, enforces the
// instance budget, and dispatches independent executions across workers.
// Results are predicate.DNF values: disjunctions of conjunctions of
// (parameter, comparator, value) triples, simplified with Quine-McCluskey.
//
// Sessions can be durable: WithDurability(dir) write-ahead logs every
// execution, and ResumeSession(dir, oracle) reopens a session — even one
// whose process was killed mid-search — replaying all logged evaluations
// so no oracle call is ever paid for twice.
package bugdoc

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/pipeline"
	"repro/internal/predicate"
	"repro/internal/provenance"
	"repro/internal/provlog"
)

// Re-exported model types: see the internal packages for full
// documentation.
type (
	// Space is an ordered parameter space.
	Space = pipeline.Space
	// Parameter declares one manipulable parameter.
	Parameter = pipeline.Parameter
	// Value is an ordinal or categorical parameter value.
	Value = pipeline.Value
	// Kind discriminates ordinal from categorical values.
	Kind = pipeline.Kind
	// Instance is one pipeline instance (full assignment).
	Instance = pipeline.Instance
	// Assignment is one (parameter, value) pair.
	Assignment = pipeline.Assignment
	// Outcome is an evaluation result.
	Outcome = pipeline.Outcome
	// Oracle runs one instance and evaluates it.
	Oracle = exec.Oracle
	// OracleFunc adapts a function to Oracle.
	OracleFunc = exec.OracleFunc
	// Triple is a parameter-comparator-value condition.
	Triple = predicate.Triple
	// Comparator is one of =, !=, <=, >.
	Comparator = predicate.Comparator
	// Conjunction is a root cause: a conjunction of triples.
	Conjunction = predicate.Conjunction
	// DNF is a disjunction of root causes.
	DNF = predicate.DNF
	// Store is the provenance log of executed instances.
	Store = provenance.Store
	// Record is one provenance entry.
	Record = provenance.Record
	// FlakyPolicy configures quorum outcome resolution for sessions whose
	// oracle is non-deterministic: how many trials to dispatch per
	// instance and how many agreeing votes resolve it.
	FlakyPolicy = exec.FlakyPolicy
)

// Value kinds.
const (
	Ordinal     = pipeline.Ordinal
	Categorical = pipeline.Categorical
)

// Outcomes.
const (
	Succeed = pipeline.Succeed
	Fail    = pipeline.Fail
	// Inconclusive records a flaky quorum that tied at its trial cap:
	// the instance is memoized (never re-dispatched) but counts as
	// evidence for neither side.
	Inconclusive = pipeline.OutcomeInconclusive
)

// Comparators.
const (
	Eq  = predicate.Eq
	Neq = predicate.Neq
	Le  = predicate.Le
	Gt  = predicate.Gt
)

// Constructors re-exported from the model packages.
var (
	// Ord builds an ordinal value.
	Ord = pipeline.Ord
	// Cat builds a categorical value.
	Cat = pipeline.Cat
	// NewSpace validates and builds a parameter space.
	NewSpace = pipeline.NewSpace
	// MustSpace is NewSpace or panic.
	MustSpace = pipeline.MustSpace
	// NewInstance builds an instance from values in space order.
	NewInstance = pipeline.NewInstance
	// MustInstance is NewInstance or panic.
	MustInstance = pipeline.MustInstance
	// T builds a triple.
	T = predicate.T
	// NewStore builds an empty provenance store.
	NewStore = provenance.NewStore
	// LatencyOracle wraps an oracle with per-run latency.
	LatencyOracle = exec.LatencyOracle
)

// Algorithm selects a debugging algorithm.
type Algorithm = core.Algorithm

// The three BugDoc algorithms.
const (
	// Shortcut is Algorithm 1: a single substitution pass, made over
	// groups of parameters (see internal/core.Shortcut).
	Shortcut = core.AlgoShortcut
	// StackedShortcut is Algorithm 2: shortcut against k disjoint goods.
	StackedShortcut = core.AlgoStackedShortcut
	// DebuggingDecisionTrees is the Section 4.2 algorithm.
	DebuggingDecisionTrees = core.AlgoDDT
)

// Option configures a Session.
type Option func(*Session)

// WithBudget caps the number of new pipeline executions (the paper's cost
// measure); n < 0 means unlimited (the default).
func WithBudget(n int) Option {
	return func(s *Session) { s.budget = n }
}

// WithWorkers sets the parallel dispatch pool size (Section 4.3).
func WithWorkers(n int) Option {
	return func(s *Session) { s.workers = n }
}

// WithSeed fixes the randomness used for instance sampling.
func WithSeed(seed int64) Option {
	return func(s *Session) { s.seed = seed }
}

// WithHistory pre-populates the provenance with previously-run instances
// G = CP_1..CP_k; their evaluations are free. The history is recorded
// by one Store.AddBatch, one WAL write per up to 8192 records, so a
// durable session logs a history of any length in a few WAL writes. It
// must list each instance at most once: NewSession rejects a repeated
// instance, durable or not, before anything is logged. A durable session resumed
// over a log that already holds some of the history records only the
// rest.
//
// NewSession reads records in place: it neither copies the slice nor
// writes to it or to its spare capacity, and keeps no reference to it
// once it returns. Several WithHistory options add their records in
// order.
func WithHistory(records []Record) Option {
	return func(s *Session) {
		if len(s.history) == 0 {
			// Capped, so a later WithHistory appends into a fresh array
			// and never into the caller's spare capacity.
			s.history = records[:len(records):len(records)]
			return
		}
		s.history = append(s.history, records...)
	}
}

// WithDurability write-ahead logs the session's provenance under dir
// (internal/provlog): every oracle result is on disk before it is used, and
// a session opened over an existing log resumes it — already-evaluated
// instances are served from the replayed provenance with zero repeated
// oracle calls. Sessions with durability must be Closed.
func WithDurability(dir string) Option {
	return func(s *Session) { s.stateDir = dir }
}

// WithFsync makes the durable session fsync every log write — one per
// algorithm round, per up to 8192 history records, or per flaky-oracle
// vote — trading throughput for zero loss on a machine crash (the default
// leaves flushing to the OS; a process kill alone loses nothing either
// way). It has no effect without WithDurability.
func WithFsync(on bool) Option {
	return func(s *Session) { s.fsync = on }
}

// WithFlakyPolicy declares the session's oracle non-deterministic: every
// new instance is dispatched between MinTrials and MaxTrials times and
// its recorded outcome is resolved by majority vote once Quorum agreeing
// verdicts accumulate (an exact tie at MaxTrials records Inconclusive,
// which supports neither side). Each trial consumes one budget unit. On
// durable sessions every trial is write-ahead logged, so a killed session
// resumes mid-quorum with its accumulated votes. The zero policy (and any
// MaxTrials <= 1) keeps the deterministic single-trial path.
func WithFlakyPolicy(p FlakyPolicy) Option {
	return func(s *Session) { s.flakyPolicy = &p }
}

// Session is a debugging session over one pipeline: an oracle, a provenance
// store, and budgeted, parallel execution — optionally durable and
// resumable (WithDurability, ResumeSession).
type Session struct {
	space        *Space
	ex           *exec.Executor
	log          *provlog.Log // nil without WithDurability
	seed         int64
	budget       int
	workers      int
	history      []Record
	stateDir     string
	fsync        bool
	flakyPolicy  *FlakyPolicy
	telemetryReg *Registry
	journal      *Journal
}

// NewSession builds a session for the pipeline described by space whose
// instances are executed by oracle.
func NewSession(space *Space, oracle Oracle, opts ...Option) (*Session, error) {
	if space == nil {
		return nil, fmt.Errorf("bugdoc: nil space")
	}
	if oracle == nil {
		return nil, fmt.Errorf("bugdoc: nil oracle")
	}
	s := &Session{space: space, seed: 1, budget: -1, workers: 1}
	for _, o := range opts {
		o(s)
	}
	if s.flakyPolicy != nil {
		if err := s.flakyPolicy.Validate(); err != nil {
			return nil, fmt.Errorf("bugdoc: %w", err)
		}
	}
	var st *provenance.Store
	if s.stateDir == "" {
		st = provenance.NewStore(space)
	} else {
		// A nil metrics bundle (no WithTelemetry or WithJournal) leaves the
		// log uninstrumented.
		logOpts := []provlog.Option{provlog.WithMetrics(provlog.NewMetrics(s.telemetryReg, s.journal))}
		if s.fsync {
			logOpts = append(logOpts, provlog.WithSync(true))
		}
		var err error
		if s.log, st, err = provlog.Open(s.stateDir, space, logOpts...); err != nil {
			return nil, fmt.Errorf("bugdoc: durability: %w", err)
		}
	}
	exOpts := []exec.Option{
		exec.WithBudget(s.budget),
		exec.WithWorkers(s.workers),
		exec.WithTelemetry(exec.NewTelemetry(s.telemetryReg, s.journal)),
	}
	if s.flakyPolicy != nil {
		exOpts = append(exOpts, exec.WithFlakyPolicy(*s.flakyPolicy))
	}
	s.ex = exec.New(oracle, st, exOpts...)
	// A replayed log may already hold history records from an earlier run
	// of this session; only the missing ones are added (and thereby
	// logged).
	if _, err := st.AddBatch(s.history); err != nil {
		s.Close()
		return nil, fmt.Errorf("bugdoc: history: %w", err)
	}
	s.history = nil // recorded; the store holds it now
	return s, nil
}

// ResumeSession reopens a durable session from its state directory: the
// parameter space is reconstructed from the spec persisted alongside the
// log, the provenance is replayed (recovering from a torn final record if
// the previous process was killed mid-append), and the search continues
// where it left off — instances already logged never reach the oracle
// again. Only the oracle must be supplied fresh; it cannot be persisted.
func ResumeSession(dir string, oracle Oracle, opts ...Option) (*Session, error) {
	if !provlog.Exists(dir) {
		return nil, fmt.Errorf("bugdoc: no session state in %s", dir)
	}
	space, err := provlog.ReadSpace(dir)
	if err != nil {
		return nil, fmt.Errorf("bugdoc: %w", err)
	}
	return NewSession(space, oracle, append(opts[:len(opts):len(opts)], WithDurability(dir))...)
}

// Close seals the durability log, if any. A durable session must be closed
// before its state directory is resumed; non-durable sessions close as a
// no-op.
func (s *Session) Close() error {
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}

// Checkpoint fsyncs a durable session's write-ahead log, which is the
// session's whole state: once it returns, a machine crash loses nothing
// the session has recorded, and the next ResumeSession replays the log.
// The session stays usable. Close syncs the log too, so Checkpoint is for
// a session that keeps running. It fails for sessions without
// WithDurability and after Close.
func (s *Session) Checkpoint() error {
	if s.log == nil {
		return fmt.Errorf("bugdoc: session has no durability log to checkpoint")
	}
	return s.log.Sync()
}

// Store exposes the session's provenance.
func (s *Session) Store() *Store { return s.ex.Store() }

// Spent reports how many new instances the session has executed.
func (s *Session) Spent() int { return s.ex.Spent() }

// Seed ensures the provenance holds at least one failing and one
// succeeding instance (sampling random instances as needed) — the
// precondition of every algorithm — and then tries, best effort, to record
// a succeeding instance disjoint from the first failing one, the
// Disjointness Condition of Shortcut's guarantee. A session whose history
// already holds both outcomes and such a disjoint succeeding instance pays
// nothing; one whose history holds both outcomes without it still spends
// executions on random disjoint instances, within the session's budget.
func (s *Session) Seed(ctx context.Context) error {
	return core.SeedHistory(ctx, s.ex, rand.New(rand.NewSource(s.seed)), 0)
}

// FindOne looks for at least one minimal definitive root cause with the
// selected algorithm (goal (i) of the paper's problem definition). The
// result may be empty when the algorithm refutes its assertion or the
// budget runs out.
func (s *Session) FindOne(ctx context.Context, algo Algorithm) (DNF, error) {
	return core.FindOne(ctx, s.ex, algo, s.coreOptions())
}

// FindAll looks for all minimal definitive root causes (goal (ii)); only
// DebuggingDecisionTrees can assert more than one.
func (s *Session) FindAll(ctx context.Context, algo Algorithm) (DNF, error) {
	return core.FindAll(ctx, s.ex, algo, s.coreOptions())
}

func (s *Session) coreOptions() core.Options {
	return core.Options{Rand: rand.New(rand.NewSource(s.seed))}
}

// Explain renders causes for human debuggers, one per line.
func Explain(causes DNF) string {
	if len(causes) == 0 {
		return "no definitive root cause asserted\n"
	}
	out := ""
	for i, c := range causes {
		out += fmt.Sprintf("root cause %d: %s\n", i+1, c)
	}
	return out
}
