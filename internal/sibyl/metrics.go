package sibyl

import (
	"sync/atomic"

	"cubefc/internal/metrics"
)

// Metrics holds the engine's live counters. All fields are atomics so
// the ingest hot path and the control loop never share a lock with
// scrapers; read them with Load.
type Metrics struct {
	// Observed counts every ObserveTemplate call (the aggregate-QPS
	// stream is derived from its per-bucket deltas).
	Observed atomic.Int64
	// Templates is the current tracked-template gauge.
	Templates atomic.Int64
	// Dropped counts new templates rejected because the table was full
	// of warmer entries; Evicted counts templates removed by decay or to
	// admit a newcomer.
	Dropped atomic.Int64
	Evicted atomic.Int64
	// Buckets counts closed buckets (Ticks); Refits counts model fits
	// (per-template and aggregate); FitErrors counts fits that failed
	// and fell back to the EWMA rate.
	Buckets   atomic.Int64
	Refits    atomic.Int64
	FitErrors atomic.Int64
	// Spikes counts per-template spike classifications; Troughs counts
	// trough buckets.
	Spikes  atomic.Int64
	Troughs atomic.Int64
	// Actuator outcomes.
	Prewarms      atomic.Int64
	PrewarmErrors atomic.Int64
	TroughRuns    atomic.Int64
	TroughSkips   atomic.Int64
	Resizes       atomic.Int64
	ResizeSkips   atomic.Int64
}

// Registry describes every field for /metrics and \stats.
func (m *Metrics) Registry() *metrics.Registry {
	r := &metrics.Registry{}
	r.Int("sibyl_observed_total", "Query-template arrivals observed by the telemetry hook.", &m.Observed)
	r.Int("sibyl_templates", "Workload templates currently tracked.", &m.Templates)
	r.Int("sibyl_templates_dropped_total", "New templates rejected by the full table.", &m.Dropped)
	r.Int("sibyl_templates_evicted_total", "Templates evicted by rate decay or replacement.", &m.Evicted)
	r.Int("sibyl_buckets_total", "Telemetry buckets closed.", &m.Buckets)
	r.Int("sibyl_refits_total", "Workload-model fits performed.", &m.Refits)
	r.Int("sibyl_fit_errors_total", "Workload-model fits that failed.", &m.FitErrors)
	r.Int("sibyl_spikes_total", "Per-template spike predictions.", &m.Spikes)
	r.Int("sibyl_troughs_total", "Aggregate trough predictions.", &m.Troughs)
	r.Int("sibyl_prewarms_total", "Spike templates pre-warmed.", &m.Prewarms)
	r.Int("sibyl_prewarm_errors_total", "Pre-warm executions that failed.", &m.PrewarmErrors)
	r.Int("sibyl_trough_runs_total", "Trough maintenance runs.", &m.TroughRuns)
	r.Int("sibyl_trough_skips_total", "Trough runs suppressed by hysteresis.", &m.TroughSkips)
	r.Int("sibyl_resizes_total", "Cache resizes applied.", &m.Resizes)
	r.Int("sibyl_resize_skips_total", "Cache resizes suppressed by the dead band.", &m.ResizeSkips)
	return r
}
