package provenance

import "repro/internal/telemetry"

// Metrics is the store's instrumentation bundle. Build one with NewMetrics
// and attach it with SetMetrics before handing the store to writers (the
// SetSink contract); a nil *Metrics — the default — is the uninstrumented
// fast path.
//
// The record count costs nothing on the write path: it is a callback gauge
// over the store's length, evaluated only at snapshot time.
type Metrics struct {
	reg *telemetry.Registry
}

// NewMetrics registers the store's metrics in reg (under provenance_*
// names). NewMetrics(nil) returns nil, the uninstrumented store.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{reg: reg}
}

// SetMetrics attaches an instrumentation bundle and registers the record
// count gauge (provenance_records), which reads the store's length at
// snapshot time. Like SetSink, SetMetrics is not meant to race with Adds:
// attach before handing the store to the executor. Passing nil registers
// nothing (an already-registered gauge keeps reporting).
func (st *Store) SetMetrics(m *Metrics) {
	if m == nil {
		return
	}
	m.reg.GaugeFunc("provenance_records", func() int64 { return int64(st.Len()) })
}
