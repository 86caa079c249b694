package provenance

import (
	"time"

	"repro/internal/telemetry"
)

// Metrics is the store's instrumentation bundle. Build one with NewMetrics
// and attach it with SetMetrics before handing the store to writers (the
// SetSink contract); a nil *Metrics — the default — is the uninstrumented
// fast path.
//
// The record count costs nothing on the write path: it is a callback gauge
// over the store's length, evaluated only at snapshot time. The one
// histogram times the deferred base-index build, which runs at most once
// per checkpoint load.
type Metrics struct {
	reg          *telemetry.Registry
	indexBuildNs *telemetry.Histogram // deferred base-index build duration
}

// NewMetrics registers the store's metrics in reg (under provenance_*
// names). NewMetrics(nil) returns nil, the uninstrumented store.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		reg:          reg,
		indexBuildNs: reg.Histogram("provenance_index_build_ns"),
	}
}

// SetMetrics attaches an instrumentation bundle and registers the record
// count gauge (provenance_records), which reads the store's length at
// snapshot time. Like SetSink, SetMetrics is not meant to race with Adds:
// attach before handing the store to the executor. Passing nil detaches
// (an already-registered gauge keeps reporting).
func (st *Store) SetMetrics(m *Metrics) {
	st.met = m
	if m == nil {
		return
	}
	m.reg.GaugeFunc("provenance_records", func() int64 { return int64(st.Len()) })
}

// indexBuilt records one deferred base-index build.
func (m *Metrics) indexBuilt(d time.Duration) {
	if m == nil {
		return
	}
	m.indexBuildNs.Observe(int64(d))
}
