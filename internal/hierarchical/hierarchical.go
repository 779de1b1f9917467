// Package hierarchical implements the comparison approaches of Section
// VI-B: the data-independent schemes from the hierarchical-forecasting
// literature (Direct, Bottom-Up, Top-Down) and the empirical ones (Combine
// — the optimal-reconciliation framework of Hyndman et al. — and the
// Greedy model selection of Fischer et al.). Every approach produces a
// core.Configuration so all are evaluated with the same machinery.
package hierarchical

import (
	"fmt"
	"math"
	"sort"
	"time"

	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/derivation"
	"cubefc/internal/forecast"
)

// Options parameterizes the baseline builders. Everything else is the
// advisor's: the model family (core.DefaultModelFactory), the train/test
// split (core.TrainLen) and the fallback chain for short series
// (Configuration.FitWithFallback) — a baseline that differed in one of them
// would not be comparable in Figure 7.
type Options struct {
	// CreationDelay adds an artificial per-model fitting delay
	// (Fig. 8c).
	CreationDelay time.Duration
}

// fitNode fits the default model family on the node's training series, with
// fallback to simpler families on short series.
func fitNode(cfg *core.Configuration, id int, delay time.Duration) (forecast.Model, time.Duration, error) {
	train := cfg.Graph.Node(id).Series.Slice(0, cfg.TrainLen)
	m, d, err := cfg.FitWithFallback(core.DefaultModelFactory, train, delay, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("hierarchical: cannot fit node %d: %w", id, err)
	}
	return m, d, nil
}

// installModel fits and stores a model at the node, returning its
// test-horizon forecast.
func installModel(cfg *core.Configuration, id int, delay time.Duration) ([]float64, error) {
	m, d, err := fitNode(cfg, id, delay)
	if err != nil {
		return nil, err
	}
	cfg.Models[id] = m
	cfg.ModelSeconds[id] = d.Seconds()
	cfg.CostSeconds += d.Seconds()
	fc := make([]float64, cfg.TestLen())
	m.Forecast(fc)
	return fc, nil
}

// nodeError is the test error of the forecast sc derives from the source
// forecasts in fc (indexed by node ID), clamped by core.ClampErr, and false
// where the error is undefined.
func nodeError(cfg *core.Configuration, sc derivation.Scheme, fc [][]float64) (float64, bool) {
	fcs := make([][]float64, len(sc.Sources))
	for i, s := range sc.Sources {
		fcs[i] = fc[s]
	}
	e, err := sc.SMAPE(cfg.Graph.NodeValues(sc.Target)[cfg.TrainLen:], fcs)
	return core.ClampErr(e), err == nil && !math.IsNaN(e)
}

// setNodeError assigns the node its scheme sc and the error nodeError gives,
// which is 1 where it is undefined.
func setNodeError(cfg *core.Configuration, sc derivation.Scheme, fc [][]float64) {
	e, _ := nodeError(cfg, sc, fc)
	cfg.SetScheme(sc, e)
}

// Direct creates a model for every node and uses it directly (Figure 3a) —
// the naive approach with maximum model costs.
func Direct(g *cube.Graph, opts Options) (*core.Configuration, error) {
	cfg := core.NewConfiguration(g, core.TrainLen(g.Length))
	fc := make([][]float64, g.NumNodes())
	for id := range fc {
		var err error
		if fc[id], err = installModel(cfg, id, opts.CreationDelay); err != nil {
			return nil, err
		}
		setNodeError(cfg, derivation.DirectScheme(id), fc)
	}
	return cfg, nil
}

// BottomUp creates models only for base time series and answers every
// aggregated node by summing base forecasts — "arguably the most commonly
// applied method in forecasting literature".
func BottomUp(g *cube.Graph, opts Options) (*core.Configuration, error) {
	cfg := core.NewConfiguration(g, core.TrainLen(g.Length))
	fc := make([][]float64, g.NumNodes())
	for _, id := range g.BaseIDs {
		var err error
		if fc[id], err = installModel(cfg, id, opts.CreationDelay); err != nil {
			return nil, err
		}
		setNodeError(cfg, derivation.DirectScheme(id), fc)
	}
	for id := range fc {
		if !g.IsBase(id) {
			setNodeError(cfg, derivation.Scheme{Target: id, Sources: g.CoveredBases(id), K: 1, Kind: derivation.Aggregation}, fc)
		}
	}
	return cfg, nil
}

// TopDown creates a single model at the top node and distributes its
// forecasts down the graph using the historical proportions of the data —
// the Gross/Sohl variant based on proportions of historical averages that
// the paper reports as performing best.
func TopDown(g *cube.Graph, opts Options) (*core.Configuration, error) {
	cfg := core.NewConfiguration(g, core.TrainLen(g.Length))
	top := g.TopID
	fc := make([][]float64, g.NumNodes())
	var err error
	if fc[top], err = installModel(cfg, top, opts.CreationDelay); err != nil {
		return nil, err
	}
	setNodeError(cfg, derivation.DirectScheme(top), fc)
	for id := range fc {
		if id == top {
			continue
		}
		sc, err := derivation.NewScheme(g, id, []int{top}, cfg.TrainLen)
		if err != nil {
			// Zero-history node: fall back to a zero share.
			sc = derivation.Scheme{Target: id, Sources: []int{top}, K: 0}
		}
		sc.Kind = derivation.Disaggregation
		setNodeError(cfg, sc, fc)
	}
	return cfg, nil
}

// Combine implements the optimal hierarchical combination of Hyndman et
// al.: every node gets a model, and all forecasts are reconciled through
// the summing matrix S by ordinary least squares — the reconciled base
// forecasts are β̂ = (SᵀS)⁻¹Sᵀŷ and every node is answered by Sβ̂. Model
// costs are maximal, and the regression grows with the number of base
// series (the paper could not run it on Gen10k within a day). It is
// CombineWLS with every weight 1.
func Combine(g *cube.Graph, opts Options) (*core.Configuration, error) {
	return reconcile(g, opts, false)
}

// CombineWLS is a weighted variant of Combine implementing the MinT-WLS
// reconciliation of Hyndman et al.'s later work (a documented extension
// beyond the paper): base-forecast residual variances weight the
// least-squares reconciliation, so noisy nodes influence the reconciled
// forecasts less:
//
//	β̂ = argmin (ŷ − S·β)ᵀ W⁻¹ (ŷ − S·β),  W = diag(σ̂²)
//
// computed by rescaling each row of S and ŷ by 1/σ̂ and solving the
// ordinary least-squares problem.
func CombineWLS(g *cube.Graph, opts Options) (*core.Configuration, error) {
	return reconcile(g, opts, true)
}

// reconcile fits a model at every node and solves the least-squares
// reconciliation once per forecast step, each row of S and ŷ scaled by 1/σ̂:
// the node's residual standard deviation when weighted, else 1, which leaves
// the problem unscaled since x/1 is x. The QR factorization of the scaled S
// is reused across steps. β̂ holds the reconciled base forecasts; every
// node's scheme sums those of its covered bases, which is its row of Sβ̂.
func reconcile(g *cube.Graph, opts Options, weighted bool) (*core.Configuration, error) {
	cfg := core.NewConfiguration(g, core.TrainLen(g.Length))
	h := cfg.TestLen()
	nodes := g.NumNodes()
	yhat := make([][]float64, nodes)
	sigma := make([]float64, nodes)
	ws := newMatrix(nodes, len(g.BaseIDs))
	for id := range yhat {
		var err error
		if yhat[id], err = installModel(cfg, id, opts.CreationDelay); err != nil {
			return nil, err
		}
		sigma[id] = 1
		if u, ok := cfg.Models[id].(forecast.Uncertainty); weighted && ok && u.ResidualStd() > 0 {
			sigma[id] = u.ResidualStd()
		}
		for _, b := range g.CoveredBases(id) {
			j, _ := g.BaseOrdinal(b)
			ws.set(id, j, 1/sigma[id])
		}
	}
	qr, err := newQR(ws)
	if err != nil {
		return nil, fmt.Errorf("hierarchical: combine: %w", err)
	}
	reconciled := make([][]float64, nodes)
	for _, b := range g.BaseIDs {
		reconciled[b] = make([]float64, h)
	}
	rhs := make([]float64, nodes)
	for step := 0; step < h; step++ {
		for id := range rhs {
			rhs[id] = yhat[id][step] / sigma[id]
		}
		beta, err := qr.solve(rhs)
		if err != nil {
			return nil, fmt.Errorf("hierarchical: combine solve: %w", err)
		}
		for j, b := range g.BaseIDs {
			reconciled[b][step] = beta[j]
		}
	}
	for id := range yhat {
		sc := derivation.DirectScheme(id)
		if !g.IsBase(id) {
			sc = derivation.Scheme{Target: id, Sources: g.CoveredBases(id), K: 1, Kind: derivation.General}
		}
		setNodeError(cfg, sc, reconciled)
	}
	return cfg, nil
}

// Greedy implements the empirical selection of Fischer et al. (BTW 2011):
// it first builds models for all nodes, then — starting from an empty
// configuration — repeatedly adds the model with the highest accuracy
// benefit, considering the traditional derivation schemes (direct,
// aggregation, disaggregation), until no model improves the overall error.
// Unused models are dropped from the final configuration (they were only
// built for evaluation), but their creation time is charged, which is why
// the approach scales poorly (Figure 9a).
func Greedy(g *cube.Graph, opts Options) (*core.Configuration, error) {
	cfg := core.NewConfiguration(g, core.TrainLen(g.Length))
	nodes := g.NumNodes()

	// Build every model up front (the defining cost of the approach).
	fc := make([][]float64, nodes)
	models := make([]forecast.Model, nodes)
	seconds := make([]float64, nodes)
	var totalSeconds float64
	for id := range fc {
		m, d, err := fitNode(cfg, id, opts.CreationDelay)
		if err != nil {
			return nil, err
		}
		models[id] = m
		seconds[id] = d.Seconds()
		totalSeconds += d.Seconds()
		fc[id] = make([]float64, cfg.TestLen())
		m.Forecast(fc[id])
	}

	desc := descendants(g)

	// evalScheme evaluates, for models at sources, the error they would
	// give target t under the traditional schemes.
	evalScheme := func(t int, sources []int) (derivation.Scheme, float64, bool) {
		sc, err := derivation.NewScheme(g, t, sources, cfg.TrainLen)
		if err != nil {
			return sc, 0, false
		}
		e, ok := nodeError(cfg, sc, fc)
		return sc, e, ok
	}

	selected := make([]bool, nodes)
	// completedEdges calls f for every parent of s with the child edge, s's
	// among them, that s completes: every other node of it is selected.
	completedEdges := func(s int, f func(pid int, edge []int)) {
		for d, pid := range g.ParentsOf(s) {
			if pid < 0 {
				continue
			}
			edge := g.ChildrenAlong(pid, d)
			complete := true
			for _, c := range edge {
				if c != s && !selected[c] {
					complete = false
					break
				}
			}
			if complete {
				f(pid, edge)
			}
		}
	}
	for {
		bestGain := 0.0
		bestID := -1
		for s := 0; s < nodes; s++ {
			if selected[s] {
				continue
			}
			gain := 0.0
			// Direct benefit at the node itself.
			if e, ok := nodeError(cfg, derivation.DirectScheme(s), fc); ok && e < cfg.NodeError(s) {
				gain += cfg.NodeError(s) - e
			}
			// Disaggregation benefit for all nodes covered by s.
			for _, t := range desc[s] {
				if _, e, ok := evalScheme(t, []int{s}); ok && e < cfg.NodeError(t) {
					gain += cfg.NodeError(t) - e
				}
			}
			// Aggregation benefit for parents whose child edge would be
			// completed by s.
			completedEdges(s, func(pid int, edge []int) {
				if _, e, ok := evalScheme(pid, edge); ok && e < cfg.NodeError(pid) {
					gain += cfg.NodeError(pid) - e
				}
			})
			if gain > bestGain {
				bestGain = gain
				bestID = s
			}
		}
		if bestID < 0 || bestGain <= 1e-12 {
			break
		}
		// Apply the best model: install it and all improving schemes. A
		// model node always carries a scheme, the direct one if nothing
		// better reached it yet.
		s := bestID
		selected[s] = true
		cfg.Models[s] = models[s]
		cfg.ModelSeconds[s] = seconds[s]
		direct := derivation.DirectScheme(s)
		e, ok := nodeError(cfg, direct, fc)
		if _, has := cfg.Scheme(s); !has || ok && e < cfg.NodeError(s) {
			cfg.SetScheme(direct, e)
		}
		for _, t := range desc[s] {
			if sc, e, ok := evalScheme(t, []int{s}); ok && e < cfg.NodeError(t) {
				sc.Kind = derivation.Disaggregation
				cfg.SetScheme(sc, e)
			}
		}
		completedEdges(s, func(pid int, edge []int) {
			if sc, e, ok := evalScheme(pid, edge); ok && e < cfg.NodeError(pid) {
				sc.Kind = derivation.Aggregation
				cfg.SetScheme(sc, e)
			}
		})
	}
	// All models were created; the configuration keeps only the selected
	// ones but the total creation cost was paid.
	cfg.CostSeconds = totalSeconds
	return cfg, nil
}

// descendants precomputes, for every node, the strict descendants (nodes
// whose series contribute to it — the disaggregation targets of a model at
// that node). Built once by walking each node's ancestor closure, which is
// linear in the total number of (node, ancestor) pairs.
func descendants(g *cube.Graph) [][]int {
	out := make([][]int, g.NumNodes())
	for id := 0; id < g.NumNodes(); id++ {
		seen := map[int]bool{id: true}
		queue := []int{id}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, p := range g.ParentsOf(cur) {
				if p < 0 || seen[p] {
					continue
				}
				seen[p] = true
				out[p] = append(out[p], id)
				queue = append(queue, p)
			}
		}
	}
	for _, d := range out {
		sort.Ints(d)
	}
	return out
}
