package bugdoc

import "repro/internal/telemetry"

// Telemetry re-exports: the runtime instrumentation layer (not to be
// confused with the paper-evaluation scoring in internal/metrics — see
// docs/ARCHITECTURE.md).
type (
	// Registry is a named collection of runtime metrics; snapshot it for
	// the /debug/vars JSON shape or render Snapshot().Table().
	Registry = telemetry.Registry
	// StatsSnapshot is a point-in-time view of every metric in a Registry.
	StatsSnapshot = telemetry.Snapshot
	// Journal is a JSON-lines session event log (oracle trials, batch
	// dispatches, WAL flushes).
	Journal = telemetry.Journal
)

// Telemetry constructors re-exported from internal/telemetry.
var (
	// NewRegistry builds an empty metrics registry.
	NewRegistry = telemetry.NewRegistry
	// NewJournal builds a session event journal over an io.Writer.
	NewJournal = telemetry.NewJournal
	// OpenJournal creates a session event journal file.
	OpenJournal = telemetry.OpenJournal
)

// WithTelemetry instruments the whole session stack — executor, drivers,
// provenance store, and (for durable sessions) the write-ahead log —
// recording hot-path counters and latency histograms into reg. Every
// metric write is one atomic add; sessions without this option pay a
// single nil check per operation and allocate nothing. Snapshot reg (or
// call Session.Stats) at any time, including while the session runs.
func WithTelemetry(reg *Registry) Option {
	return func(s *Session) { s.telemetryReg = reg }
}

// WithJournal streams structured session events (JSON lines) to j: oracle
// trial spans with instance hash, outcome, and duration; batch dispatches;
// WAL writes. The journal is line-atomic under concurrency.
// Unlike WithTelemetry's counters, emitting an event allocates, so
// journals record span-level events only — the per-record hot paths stay
// untouched. Close the journal after the session when it owns a file
// (OpenJournal).
func WithJournal(j *Journal) Option {
	return func(s *Session) { s.journal = j }
}

// Stats snapshots the session's runtime telemetry. Without WithTelemetry
// it returns an empty (but well-formed) snapshot.
func (s *Session) Stats() StatsSnapshot {
	return s.telemetryReg.Snapshot()
}
