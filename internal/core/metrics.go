package core

import (
	"sync/atomic"
	"time"
)

// Advisor observability, mirroring the engine's atomic-counter approach
// (internal/f2db/metrics.go): every phase of the iteration loop updates
// plain atomics, so a monitoring goroutine can snapshot the advisor at any
// rate without participating in the OnIteration callback or blocking the
// search. The Snapshot callback remains the per-iteration push channel;
// Metrics is the cumulative pull surface.

// advisorMetrics holds the live counters.
type advisorMetrics struct {
	iterations     atomic.Int64
	candidates     atomic.Int64 // ranked candidates across all iterations
	modelsBuilt    atomic.Int64 // models fitted during evaluation (created)
	accepted       atomic.Int64
	rejected       atomic.Int64
	deleted        atomic.Int64
	probesPlanned  atomic.Int64 // multi-source probe plans generated
	probesApplied  atomic.Int64 // probes that improved a scheme
	indicatorCells atomic.Int64 // added once per local indicator
	schemeEvals    atomic.Int64 // added once per evaluation loop

	selectionNanos atomic.Int64
	evalNanos      atomic.Int64
	controlNanos   atomic.Int64
}

// AdvisorMetrics is a point-in-time snapshot of the advisor's cumulative
// counters (see Advisor.Metrics).
type AdvisorMetrics struct {
	// Iterations counts completed Step calls; Candidates the ranked
	// candidates they examined.
	Iterations int64
	Candidates int64
	// ModelsBuilt counts fitted evaluation models; Accepted/Rejected how
	// the acceptance criterion judged them; Deleted removed models.
	ModelsBuilt int64
	Accepted    int64
	Rejected    int64
	Deleted     int64
	// ProbesPlanned/ProbesApplied cover the multi-source optimization
	// component.
	ProbesPlanned int64
	ProbesApplied int64
	// IndicatorCells counts indicator.Combined calls, SchemeEvals scheme
	// evaluations; a seeded run with a fixed γ repeats both exactly.
	IndicatorCells int64
	SchemeEvals    int64
	// SelectionTime, EvalTime and ControlTime accumulate per-phase wall
	// time across all iterations.
	SelectionTime time.Duration
	EvalTime      time.Duration
	ControlTime   time.Duration
}

// Metrics returns a lock-free snapshot of the advisor counters. Safe to
// call concurrently with Step (e.g. from a progress reporter watching a
// long-running configuration search).
func (a *Advisor) Metrics() AdvisorMetrics {
	return AdvisorMetrics{
		Iterations:     a.met.iterations.Load(),
		Candidates:     a.met.candidates.Load(),
		ModelsBuilt:    a.met.modelsBuilt.Load(),
		Accepted:       a.met.accepted.Load(),
		Rejected:       a.met.rejected.Load(),
		Deleted:        a.met.deleted.Load(),
		ProbesPlanned:  a.met.probesPlanned.Load(),
		ProbesApplied:  a.met.probesApplied.Load(),
		IndicatorCells: a.met.indicatorCells.Load(),
		SchemeEvals:    a.met.schemeEvals.Load(),
		SelectionTime:  time.Duration(a.met.selectionNanos.Load()),
		EvalTime:       time.Duration(a.met.evalNanos.Load()),
		ControlTime:    time.Duration(a.met.controlNanos.Load()),
	}
}
