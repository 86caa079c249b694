package exec

import (
	"time"

	"repro/internal/pipeline"
	"repro/internal/telemetry"
)

// Telemetry is the executor's instrumentation bundle: hot-path counters
// and the oracle latency histogram registered in a telemetry.Registry,
// plus an optional session event journal. Build one with NewTelemetry and
// attach it with WithTelemetry; a nil *Telemetry (the default) is the
// uninstrumented fast path — the executor pays one nil check per
// operation and allocates nothing.
//
// The same bundle carries the algorithm-driver counters (decisions made,
// tree regrows): drivers hold the executor, so they report through its
// telemetry rather than plumbing a second handle.
type Telemetry struct {
	reg     *telemetry.Registry
	journal *telemetry.Journal

	memoHits   *telemetry.Counter
	memoMisses *telemetry.Counter
	dedupDrops *telemetry.Counter
	trials     *telemetry.Counter
	oracleErrs *telemetry.Counter

	budgetSpent     *telemetry.Gauge
	budgetRemaining *telemetry.Gauge
	queueDepth      *telemetry.Gauge

	oracleLat *telemetry.Histogram

	trialsPerInst *telemetry.Histogram
	quorumTies    *telemetry.Counter

	decisions   *telemetry.Counter
	treeRegrows *telemetry.Counter
}

// NewTelemetry registers the executor's metrics in reg (under exec_* and
// driver_* names) and emits span events to journal. Either argument may be
// nil: a nil registry records no metrics, a nil journal logs no events,
// and NewTelemetry(nil, nil) returns nil — the uninstrumented executor.
func NewTelemetry(reg *telemetry.Registry, journal *telemetry.Journal) *Telemetry {
	if reg == nil && journal == nil {
		return nil
	}
	return &Telemetry{
		reg:             reg,
		journal:         journal,
		memoHits:        reg.Counter("exec_memo_hits"),
		memoMisses:      reg.Counter("exec_memo_misses"),
		dedupDrops:      reg.Counter("exec_dedup_drops"),
		trials:          reg.Counter("exec_oracle_trials"),
		oracleErrs:      reg.Counter("exec_oracle_errors"),
		budgetSpent:     reg.Gauge("exec_budget_spent"),
		budgetRemaining: reg.Gauge("exec_budget_remaining"),
		queueDepth:      reg.Gauge("exec_queue_depth"),
		oracleLat:       reg.Histogram("exec_oracle_latency_ns"),
		trialsPerInst:   reg.Histogram("exec_trials_per_instance"),
		quorumTies:      reg.Counter("exec_quorum_ties"),
		decisions:       reg.Counter("driver_decisions"),
		treeRegrows:     reg.Counter("driver_tree_regrows"),
	}
}

// WithTelemetry attaches an instrumentation bundle to the executor. A nil
// bundle (or omitting the option) leaves the executor uninstrumented.
func WithTelemetry(t *Telemetry) Option {
	return func(e *Executor) { e.tel = t }
}

// Telemetry returns the executor's instrumentation bundle (nil when
// uninstrumented), so drivers holding the executor can count decisions.
func (e *Executor) Telemetry() *Telemetry { return e.tel }

// Decision counts one driver decision (a suspect verified, a divide step
// resolved). Nil-safe.
func (t *Telemetry) Decision() {
	if t == nil {
		return
	}
	t.decisions.Inc()
}

// TreeRegrow counts one decision-tree rebuild in the debugging-decision-
// trees driver. Nil-safe.
func (t *Telemetry) TreeRegrow() {
	if t == nil {
		return
	}
	t.treeRegrows.Inc()
}

// trialStart journals the start of one oracle trial and returns its start
// time for trialEnd.
func (t *Telemetry) trialStart(in pipeline.Instance) time.Time {
	if t.journal != nil {
		t.journal.Emit("trial_start", telemetry.Hex("inst", in.Hash()))
	}
	return time.Now()
}

// trialEnd records one completed oracle trial: latency histogram, trial
// counter, and the journal span end with instance hash, outcome, and
// duration.
func (t *Telemetry) trialEnd(in pipeline.Instance, out pipeline.Outcome, err error, start time.Time) {
	d := time.Since(start)
	t.trials.Inc()
	t.oracleLat.Observe(int64(d))
	if err != nil {
		t.oracleErrs.Inc()
	}
	if t.journal != nil {
		outcome := out.String()
		if err != nil {
			outcome = "error"
		}
		t.journal.Emit("trial_end",
			telemetry.Hex("inst", in.Hash()),
			telemetry.Str("outcome", outcome),
			telemetry.Dur("dur_ns", d),
		)
	}
}

// quorum records one resolved flaky quorum: the trials-per-instance
// histogram, the tie counter when the vote deadlocked at the trial cap,
// and a journal event with the resolved outcome and vote count. Called
// once per instance, by the resolver whose record commit won.
func (t *Telemetry) quorum(in pipeline.Instance, out pipeline.Outcome, trials int) {
	t.trialsPerInst.Observe(int64(trials))
	if out == pipeline.OutcomeInconclusive {
		t.quorumTies.Inc()
	}
	if t.journal != nil {
		t.journal.Emit("quorum_resolved",
			telemetry.Hex("inst", in.Hash()),
			telemetry.Str("outcome", out.String()),
			telemetry.Int("trials", int64(trials)),
		)
	}
}

// budget mirrors the executor's budget state into the gauges. Called with
// e.mu held; the gauge writes are atomic stores.
func (t *Telemetry) budget(spent, remaining int, bounded bool) {
	if t == nil {
		return
	}
	t.budgetSpent.Set(int64(spent))
	if bounded {
		t.budgetRemaining.Set(int64(remaining))
	} else {
		t.budgetRemaining.Set(-1)
	}
}

// batchDispatch journals one worker-pool round: how many instances were
// requested, memoized, deduped, and dispatched, and how the results
// commit — "batch" through one AddBatch, or "per-record" under a flaky
// policy, whose quorums commit as they resolve.
func (t *Telemetry) batchDispatch(total, dispatched, dups int, batch bool) {
	if t == nil || t.journal == nil {
		return
	}
	mode := "per-record"
	if batch {
		mode = "batch"
	}
	t.journal.Emit("batch_dispatch",
		telemetry.Int("total", int64(total)),
		telemetry.Int("dispatched", int64(dispatched)),
		telemetry.Int("dups", int64(dups)),
		telemetry.Str("commit", mode),
	)
}
