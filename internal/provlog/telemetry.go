package provlog

import (
	"time"

	"repro/internal/telemetry"
)

// Metrics is the log's instrumentation bundle: records per write, fsync
// latency, bytes appended, segments garbage-collected, and checkpoint
// duration/bytes, plus write and checkpoint span events in the session
// journal. Build one with NewMetrics and attach
// it with WithMetrics; a nil *Metrics — the default — is the
// uninstrumented fast path.
type Metrics struct {
	reg     *telemetry.Registry
	journal *telemetry.Journal

	writeRecs     *telemetry.Histogram // records per write
	fsyncNs       *telemetry.Histogram // fsync latency per write
	bytesAppended *telemetry.Counter
	flushes       *telemetry.Counter
	segmentsGCd   *telemetry.Counter
	checkpoints   *telemetry.Counter
	checkpointNs  *telemetry.Histogram
	ckptBytes     *telemetry.Counter
	tierCnt       *telemetry.Gauge     // live checkpoint tiers after the last compaction
	merges        *telemetry.Counter   // completed tier merges
	mergeNs       *telemetry.Histogram // duration per tier merge
	mergeBytes    *telemetry.Histogram // merged tier size in bytes
}

// NewMetrics registers the log's metrics in reg (under provlog_* names)
// and emits flush/checkpoint span events to journal. Either argument may
// be nil; NewMetrics(nil, nil) returns nil, the uninstrumented log.
func NewMetrics(reg *telemetry.Registry, journal *telemetry.Journal) *Metrics {
	if reg == nil && journal == nil {
		return nil
	}
	return &Metrics{
		reg:           reg,
		journal:       journal,
		writeRecs:     reg.Histogram("provlog_write_recs"),
		fsyncNs:       reg.Histogram("provlog_fsync_ns"),
		bytesAppended: reg.Counter("provlog_bytes_appended"),
		flushes:       reg.Counter("provlog_flushes"),
		segmentsGCd:   reg.Counter("provlog_segments_gcd"),
		checkpoints:   reg.Counter("provlog_checkpoints"),
		checkpointNs:  reg.Histogram("provlog_checkpoint_ns"),
		ckptBytes:     reg.Counter("provlog_checkpoint_bytes"),
		tierCnt:       reg.Gauge("provlog_tiers"),
		merges:        reg.Counter("provlog_merges"),
		mergeNs:       reg.Histogram("provlog_merge_ns"),
		mergeBytes:    reg.Histogram("provlog_merge_bytes"),
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

// segmentGCd counts one garbage-collected file (a superseded WAL segment
// or checkpoint).
func (m *Metrics) segmentGCd() {
	if m == nil {
		return
	}
	m.segmentsGCd.Inc()
}

// merged records one completed tier merge: counter, size and duration
// histograms, and the merge journal span.
func (m *Metrics) merged(rows, bytes int, d time.Duration) {
	if m == nil {
		return
	}
	m.merges.Inc()
	m.mergeNs.Observe(int64(d))
	m.mergeBytes.Observe(int64(bytes))
	if m.journal != nil {
		m.journal.Emit("merge",
			telemetry.Int("rows", int64(rows)),
			telemetry.Int("bytes", int64(bytes)),
			telemetry.Dur("dur_ns", d),
		)
	}
}

// tierCount publishes the number of live checkpoint tiers.
func (m *Metrics) tierCount(n int) {
	if m == nil {
		return
	}
	m.tierCnt.Set(int64(n))
}

// checkpointed records one completed checkpoint: counter, byte counter,
// duration histogram, and the checkpoint journal span.
func (m *Metrics) checkpointed(watermark, bytes int, d time.Duration) {
	if m == nil {
		return
	}
	m.checkpoints.Inc()
	m.ckptBytes.Add(int64(bytes))
	m.checkpointNs.Observe(int64(d))
	if m.journal != nil {
		m.journal.Emit("checkpoint",
			telemetry.Int("watermark", int64(watermark)),
			telemetry.Int("bytes", int64(bytes)),
			telemetry.Dur("dur_ns", d),
		)
	}
}
