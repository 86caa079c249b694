package provlog

import (
	"time"

	"repro/internal/telemetry"
)

// Metrics is the log's instrumentation bundle: records per write, fsync
// latency and bytes appended, plus a span event per write in the session
// journal. Build one with NewMetrics and attach it with WithMetrics; a
// nil *Metrics — the default — is the uninstrumented fast path.
type Metrics struct {
	journal *telemetry.Journal

	writeRecs     *telemetry.Histogram // records per write
	fsyncNs       *telemetry.Histogram // fsync latency per write
	bytesAppended *telemetry.Counter
	flushes       *telemetry.Counter
}

// NewMetrics registers the log's metrics in reg (under provlog_* names)
// and emits a span event per write to journal. Either argument may be
// nil; NewMetrics(nil, nil) returns nil, the uninstrumented log.
func NewMetrics(reg *telemetry.Registry, journal *telemetry.Journal) *Metrics {
	if reg == nil && journal == nil {
		return nil
	}
	return &Metrics{
		journal:       journal,
		writeRecs:     reg.Histogram("provlog_write_recs"),
		fsyncNs:       reg.Histogram("provlog_fsync_ns"),
		bytesAppended: reg.Counter("provlog_bytes_appended"),
		flushes:       reg.Counter("provlog_flushes"),
	}
}

// WithMetrics attaches an instrumentation bundle to the log Open builds.
// A nil bundle (or omitting the option) leaves the log uninstrumented.
func WithMetrics(m *Metrics) Option {
	return func(l *Log) { l.met = m }
}

// flushed records one durable write: records in it, byte counter, fsync
// latency (synced is false when the log does not fsync), and the
// wal_flush journal span.
func (m *Metrics) flushed(recs, bytes int, fsync time.Duration, synced bool) {
	if m == nil {
		return
	}
	m.flushes.Inc()
	m.writeRecs.Observe(int64(recs))
	m.bytesAppended.Add(int64(bytes))
	if synced {
		m.fsyncNs.Observe(int64(fsync))
	}
	if m.journal != nil {
		m.journal.Emit("wal_flush",
			telemetry.Int("recs", int64(recs)),
			telemetry.Int("bytes", int64(bytes)),
			telemetry.Dur("fsync_ns", fsync),
		)
	}
}
