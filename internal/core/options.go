package core

import (
	"runtime"
	"time"

	"cubefc/internal/forecast"
	"cubefc/internal/indicator"
)

// The advisor's fixed parameters. No caller ever set one, so they are not
// options (Section III-A: "ideally no further parameterization input should
// be needed when running the advisor"). Each cites the section that
// introduces the parameter; where the paper names no value, the value is
// the one every recorded run and golden digest of this repository used.
const (
	// trainRatio is the training fraction of every series; the rest is the
	// evaluation part (0.8, Section VI-A).
	trainRatio = 0.8
	// indicatorEntries caps the local-indicator entries held in memory; |I|
	// per local indicator is derived from it unless IndicatorFraction is
	// set (Section IV-C.1 restricts |I| "so that indicators for all nodes
	// fit in memory").
	indicatorEntries = 4_000_000
	// alphaStep is how far the control phase raises α each time: ten steps
	// from the default Alpha0 = 0.1 to AlphaMax = 1.0 (Section IV-C.1; the
	// α values of Fig. 8e/f).
	alphaStep = 0.1
	// rejectsPerAlphaStep raises α after this many rejected candidates
	// (Section IV-C.1, the first of the three conditions control() lists).
	rejectsPerAlphaStep = 3
	// minErrorImprovement raises α when an iteration improves the overall
	// error by less than this fraction of the initial configuration error
	// (Section IV-C.1, the third condition).
	minErrorImprovement = 0.002
)

// Options parameterizes the advisor. The zero value is usable: "ideally no
// further parameterization input should be needed when running the
// advisor" (Section III-A); every field has a sensible default applied by
// Run, and every field is set by some binary, experiment or benchmark. What
// the paper fixes — the 80 % training split (TrainLen), the indicator
// memory budget, the α step and its two triggers — is the const block
// above, not a field. Model cost in eq. 8 is the model count over the graph
// size (the proxy Figure 7 reports); creation seconds are reported
// (Configuration.CostSeconds, Snapshot.CostSeconds) and decide nothing.
type Options struct {
	// ModelFactory creates the forecast models examined in the
	// evaluation phase. It is invoked from up to Parallelism goroutines
	// concurrently and must be safe for that (stateless factories are;
	// a stateful one needs its own synchronization). Default:
	// Holt-Winters additive when the graph period permits, otherwise
	// Holt's linear method.
	ModelFactory forecast.Factory
	// Parallelism bounds concurrent model creations; the paper restricts
	// the number of created candidates per iteration to the number of
	// available processors (Section IV-B.1). Default runtime.NumCPU().
	Parallelism int
	// IndicatorFraction, when > 0, fixes |I| to this fraction of the
	// graph size instead of deriving it from the memory budget (used by
	// the Fig. 8b experiment).
	IndicatorFraction float64
	// Indicator tunes the indicator combination.
	Indicator indicator.Config

	// Alpha0 is the initial acceptance parameter α (default 0.1); the
	// control phase raises it in steps of 0.1 up to AlphaMax (default 1.0).
	// Setting Alpha0 = AlphaMax pins α (used by the Fig. 8e/f sweeps).
	Alpha0   float64
	AlphaMax float64
	// Gamma0 overrides the initial preselection parameter γ; when 0 (unset)
	// γ is derived so that the expected number of positive candidates
	// matches Parallelism.
	Gamma0 float64
	// FixedGamma disables the γ feedback control (ablation).
	FixedGamma bool

	// CreationDelay is an artificial per-model fitting delay simulating
	// expensive model types (Fig. 8c/8d).
	CreationDelay time.Duration

	// MultiSourceProbes is the number of randomized multi-source scheme
	// probes per iteration performed by the optimization component of
	// Section IV-C.2. 0 means the default, 2 × Parallelism; a negative
	// value disables the component (ablation).
	MultiSourceProbes int
	// DisableDeletion turns off the deletion step (ablation).
	DisableDeletion bool

	// Stop criteria (Section IV-D). Zero values disable a criterion.
	MaxIterations int     // hard iteration bound
	TargetError   float64 // stop once overall error <= TargetError
	MaxModels     int     // stop once the configuration holds this many models

	// OnIteration, when set, receives a snapshot after every iteration —
	// the advisor "continuously outputs the forecast error as well as
	// the model costs of the current best configuration" (Section IV-D).
	OnIteration func(Snapshot)

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
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.ModelFactory == nil {
		o.ModelFactory = DefaultModelFactory
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.NumCPU()
	}
	if o.Indicator.StabilityWeight == 0 && o.Indicator.HistoryLen == 0 {
		o.Indicator = indicator.DefaultConfig()
	}
	if o.Alpha0 <= 0 {
		o.Alpha0 = 0.1
	}
	if o.AlphaMax <= 0 {
		o.AlphaMax = 1.0
	}
	if o.MultiSourceProbes == 0 {
		o.MultiSourceProbes = 2 * o.Parallelism
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
