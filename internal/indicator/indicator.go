// Package indicator implements the advisor's indicators (Section III-B):
// cheap heuristics that estimate the expected benefit of a forecast model
// at a node without building any model. The historical-error indicator
// replays the real source history through the derivation weight; the
// similarity indicator measures the stability of the per-step derivation
// weights. Both are combined into a single accuracy-like measure in [0, 1]
// where low values indicate accurate derivation.
package indicator

import (
	"math"
	"slices"

	"cubefc/internal/derivation"
)

// Worst is the indicator value assigned to nodes not covered by any local
// indicator: the maximum possible SMAPE.
const Worst = 1.0

// Config tunes the indicator combination.
type Config struct {
	// StabilityWeight scales the contribution of the weight-stability
	// (similarity) term; 0 disables it (ablation). Default 0.5.
	StabilityWeight float64
	// HistoryLen limits the history used for indicator computation
	// (<= 0: entire available history, as in the paper for its short
	// real-world series).
	HistoryLen int
}

// DefaultConfig returns the configuration used by the advisor unless
// overridden.
func DefaultConfig() Config { return Config{StabilityWeight: 0.5} }

// Combined computes the single accuracy measure for the scheme sources →
// target: the historical SMAPE inflated by the normalized weight
// instability. The result is clamped to [0, Worst]. Histories are read from
// src.
func Combined(src derivation.SeriesSource, target int, sources []int, cfg Config) float64 {
	histErr, stab, err := derivation.HistoricalIndicators(src, target, sources, cfg.HistoryLen)
	if err != nil || math.IsNaN(histErr) {
		return Worst
	}
	v := histErr
	if cfg.StabilityWeight > 0 {
		if math.IsInf(stab, 1) {
			return Worst
		}
		v = histErr * (1 + cfg.StabilityWeight*stab/(1+stab))
	}
	if v > Worst {
		v = Worst
	}
	if v < 0 {
		v = 0
	}
	return v
}

// Local is the local indicator array of a source node s: for every target
// node in its neighborhood, the expected derivation error of the scheme
// s → t. Targets ascend (every walk goes in that one order) and include the
// source itself, whose entry is zero (a model at a node forecasts that node
// "perfectly" in indicator terms); Values[i] belongs to Targets[i].
type Local struct {
	Source  int
	Targets []int
	Values  []float64
}

// ComputeLocal builds the local indicator of source over the given targets,
// in any order and with or without the source.
func ComputeLocal(src derivation.SeriesSource, source int, targets []int, cfg Config) *Local {
	l := &Local{Source: source, Targets: append(append(make([]int, 0, len(targets)+1), source), targets...)}
	slices.Sort(l.Targets)
	l.Targets = slices.Compact(l.Targets)
	l.Values = make([]float64, len(l.Targets))
	for i, t := range l.Targets {
		if t != source {
			l.Values[i] = Combined(src, t, []int{source}, cfg)
		}
	}
	return l
}

// Global is the global indicator (Section III-B): for every node of the
// graph the minimum expected error over all current local indicators,
// together with the source achieving it. Nodes covered by no local
// indicator carry the Worst value and source -1.
type Global struct {
	Values []float64
	Source []int
}

// NewGlobal returns a global indicator over n nodes with no coverage.
func NewGlobal(n int) *Global {
	g := &Global{Values: make([]float64, n), Source: make([]int, n)}
	for i := range g.Values {
		g.Values[i] = Worst
		g.Source[i] = -1
	}
	return g
}

// Clone returns a deep copy (used for temporary what-if indicators during
// ranking).
func (gi *Global) Clone() *Global {
	c := &Global{Values: make([]float64, len(gi.Values)), Source: make([]int, len(gi.Source))}
	copy(c.Values, gi.Values)
	copy(c.Source, gi.Source)
	return c
}

// Merge lowers the global indicator with a local indicator array.
func (gi *Global) Merge(l *Local) {
	for i, t := range l.Targets {
		if v := l.Values[i]; v < gi.Values[t] {
			gi.Values[t] = v
			gi.Source[t] = l.Source
		}
	}
}

// Rebuild recomputes a global indicator from scratch over the given locals,
// indexed by source ID, nil where a node has none (needed after removing a
// local indicator, Section IV-A). They merge in ascending source ID: on a
// tie the lowest names the target.
func Rebuild(n int, locals []*Local) *Global {
	gi := NewGlobal(n)
	for _, l := range locals {
		if l != nil {
			gi.Merge(l)
		}
	}
	return gi
}

// MeanStd returns the mean and standard deviation of the global indicator
// values (E(I) and σ(I) of eq. 5).
func (gi *Global) MeanStd() (mean, std float64) {
	n := len(gi.Values)
	if n == 0 {
		return 0, 0
	}
	for _, v := range gi.Values {
		mean += v
	}
	mean /= float64(n)
	var acc float64
	for _, v := range gi.Values {
		d := v - mean
		acc += d * d
	}
	std = math.Sqrt(acc / float64(n))
	return mean, std
}

// Sum returns the total of the indicator values — a cheap scalar summary
// used to compare what-if indicators during ranking (a lower sum means the
// candidate's local indicator lowers expected errors more).
func (gi *Global) Sum() float64 {
	var acc float64
	for _, v := range gi.Values {
		acc += v
	}
	return acc
}

// MergedSum returns the Sum of the global indicator as if the local
// indicator l had been merged, without materializing the copy.
func (gi *Global) MergedSum(l *Local) float64 {
	acc := gi.Sum()
	for i, t := range l.Targets {
		if v := l.Values[i]; v < gi.Values[t] {
			acc += v - gi.Values[t]
		}
	}
	return acc
}
