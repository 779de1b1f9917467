package core

import (
	"context"
	"runtime"
	"time"

	"cubefc/internal/forecast"
	"cubefc/internal/indicator"
)

// CostMetric selects how model costs enter the acceptance criterion
// (eq. 8 requires "a normalization so that error and costs are
// comparable").
type CostMetric int

const (
	// CostModels normalizes by model count over graph size — the proxy
	// the paper's Figure 7 reports ("the number of models in the final
	// configuration representing the model costs"). Deterministic.
	CostModels CostMetric = iota
	// CostTime normalizes by accumulated creation seconds over the
	// estimated cost of modeling every node (the paper's worst-case
	// maintenance approximation, Section II-D).
	CostTime
)

// Options parameterizes the advisor. The zero value is usable: "ideally no
// further parameterization input should be needed when running the
// advisor" (Section III-A); every field has a sensible default applied by
// Run.
type Options struct {
	// ModelFactory creates the forecast models examined in the
	// evaluation phase. It is invoked from up to Parallelism goroutines
	// concurrently and must be safe for that (stateless factories are;
	// a stateful one needs its own synchronization). Default:
	// Holt-Winters additive when the graph period permits, otherwise
	// Holt's linear method.
	ModelFactory forecast.Factory
	// TrainRatio is the training fraction of every series (default 0.8,
	// Section VI-A).
	TrainRatio float64
	// Parallelism bounds concurrent model creations; the paper restricts
	// the number of created candidates per iteration to the number of
	// available processors (Section IV-B.1). Default runtime.NumCPU().
	Parallelism int
	// IndicatorEntries caps the total number of local-indicator entries
	// held in memory; |I| per local indicator is derived from it
	// (Section IV-C.1 restricts |I| "so that indicators for all nodes
	// fit in memory"). Default 4_000_000 entries.
	IndicatorEntries int
	// IndicatorFraction, when > 0, fixes |I| to this fraction of the
	// graph size instead (used by the Fig. 8b experiment).
	IndicatorFraction float64
	// Indicator tunes the indicator combination.
	Indicator indicator.Config

	// Alpha0 is the initial acceptance parameter α (default 0.1); it is
	// raised by AlphaStep (default 0.1) up to AlphaMax (default 1.0) by
	// the control phase. Setting Alpha0 = AlphaMax pins α (used by the
	// Fig. 8e/f sweeps).
	Alpha0    float64
	AlphaStep float64
	AlphaMax  float64
	// RejectsPerAlphaStep raises α after this many rejected candidates
	// (default 3).
	RejectsPerAlphaStep int
	// MinErrorImprovement raises α when an iteration improves the
	// overall error by less than this fraction of the initial
	// configuration error (default 0.002).
	MinErrorImprovement float64
	// Gamma0 overrides the initial preselection parameter γ; when 0 (unset)
	// γ is derived so that the expected number of positive candidates
	// matches Parallelism.
	Gamma0 float64
	// FixedGamma disables the γ feedback control (ablation).
	FixedGamma bool

	// CostMetric selects the acceptance-cost normalization.
	CostMetric CostMetric
	// CreationDelay is an artificial per-model fitting delay simulating
	// expensive model types (Fig. 8c/8d).
	CreationDelay time.Duration

	// MultiSourceProbes is the number of randomized multi-source scheme
	// probes per iteration performed by the optimization component of
	// Section IV-C.2 (0 disables it). Default 2 × Parallelism.
	MultiSourceProbes int
	// AsyncMultiSource runs the multi-source component as a true
	// background goroutine (the paper's "additional asynchronous
	// component"): probe plans are generated continuously against model
	// snapshots and drained at iteration boundaries. Results become
	// timing dependent; leave off for reproducible runs.
	AsyncMultiSource bool
	// DisableDeletion turns off the deletion step (ablation).
	DisableDeletion bool

	// Stop criteria (Section IV-D). Zero values disable a criterion.
	MaxIterations  int     // hard iteration bound
	TargetError    float64 // stop once overall error <= TargetError
	MaxModels      int     // stop once the configuration holds this many models
	MaxCostSeconds float64 // stop once accumulated creation time exceeds this

	// SampleSize, when > 0, makes the advisor read every series through a
	// reservoir estimator (FlashP-style): a node covering more than
	// 2·SampleSize base series is estimated from a deterministic sample of
	// SampleSize of them instead of materialized, and the initial
	// full-graph scheme backfill is skipped (uncovered nodes resolve
	// schemes lazily, Configuration.ResolveScheme), so the advisor touches
	// — and the graph materializes — a sub-linear share of the cube.
	// Evaluation is the one path of an exact run; only a source set of more
	// than 2·SampleSize members is evaluated from a PPS sample of
	// SampleSize of them, with a 0.95 confidence bound. 0 samples nothing —
	// bit-identical to the pre-sampling advisor.
	SampleSize int

	// OnIteration, when set, receives a snapshot after every iteration —
	// the advisor "continuously outputs the forecast error as well as
	// the model costs of the current best configuration" (Section IV-D).
	OnIteration func(Snapshot)
	// Context cancels the advisor between iterations (anytime operation).
	Context context.Context

	// Seed drives the randomized multi-source probes.
	Seed int64
}

// Snapshot reports the advisor state after one iteration.
type Snapshot struct {
	Iteration     int
	Error         float64
	Models        int
	CostSeconds   float64
	Alpha         float64
	Gamma         float64
	Candidates    int
	Created       int
	Accepted      int
	Rejected      int
	Deleted       int
	SelectionTime time.Duration
	EvalTime      time.Duration
	// SeriesError is the mean relative standard error of the series the
	// reservoir estimator has estimated so far (cube.SampledSource.
	// MeanRelStd) — how far the histories the advisor fits and evaluates on
	// may sit from the exact aggregates. 0 when nothing was estimated.
	SeriesError float64
	// SampleBound is the mean relative sampling error bound of the scheme
	// evaluations that drew a PPS sample of their sources so far
	// (Advisor.SampleBound). 0 when none did.
	SampleBound float64
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.ModelFactory == nil {
		o.ModelFactory = DefaultModelFactory
	}
	if o.TrainRatio <= 0 || o.TrainRatio >= 1 {
		o.TrainRatio = 0.8
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.NumCPU()
	}
	if o.IndicatorEntries <= 0 {
		o.IndicatorEntries = 4_000_000
	}
	if o.Indicator.StabilityWeight == 0 && o.Indicator.HistoryLen == 0 {
		o.Indicator = indicator.DefaultConfig()
	}
	if o.Alpha0 <= 0 {
		o.Alpha0 = 0.1
	}
	if o.AlphaStep <= 0 {
		o.AlphaStep = 0.1
	}
	if o.AlphaMax <= 0 {
		o.AlphaMax = 1.0
	}
	if o.RejectsPerAlphaStep <= 0 {
		o.RejectsPerAlphaStep = 3
	}
	if o.MinErrorImprovement <= 0 {
		o.MinErrorImprovement = 0.002
	}
	if o.MultiSourceProbes == 0 {
		o.MultiSourceProbes = 2 * o.Parallelism
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	return o
}

// DefaultModelFactory builds the model family the paper's evaluation found
// to work best: triple exponential smoothing with the seasonality of the
// data granularity, falling back to Holt's method for non-seasonal series.
func DefaultModelFactory(period int) forecast.Model {
	if period >= 2 {
		return forecast.NewHoltWinters(period, forecast.Additive)
	}
	return forecast.NewHolt(false)
}
