package hierarchical

// The six baseline builders and their helpers as they stood before the
// builders scored every node through derivation.Scheme.SMAPE and Combine
// became CombineWLS with unit weights, kept verbatim under an oracle prefix
// as the reference TestBaselinesTwin holds the current builders to.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"
	"time"

	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/datasets"
	"cubefc/internal/derivation"
	"cubefc/internal/forecast"
	"cubefc/internal/timeseries"
)

// oracleFitNode fits the default model family on the node's training series, with
// fallback to simpler families on short series.
func oracleFitNode(cfg *core.Configuration, id int, delay time.Duration) (forecast.Model, time.Duration, error) {
	train := cfg.Graph.Node(id).Series.Slice(0, cfg.TrainLen)
	m, d, err := cfg.FitWithFallback(core.DefaultModelFactory, train, delay, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("hierarchical: cannot fit node %d: %w", id, err)
	}
	return m, d, nil
}

// oracleInstallModel fits and stores a model at the node, returning its
// test-horizon forecast.
func oracleInstallModel(cfg *core.Configuration, id int, delay time.Duration) ([]float64, error) {
	m, d, err := oracleFitNode(cfg, id, delay)
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

// oracleSetNodeError assigns scheme and test error for a node given its derived
// forecast.
func oracleSetNodeError(cfg *core.Configuration, sc derivation.Scheme, fc []float64) {
	e := timeseries.SMAPE(cfg.Graph.Node(sc.Target).Series.Values[cfg.TrainLen:], fc)
	if math.IsNaN(e) {
		e = 1
	}
	if e > 1 {
		e = 1
	}
	cfg.SetScheme(sc, e)
}

// oracleDirect creates a model for every node and uses it directly (Figure 3a) —
// the naive approach with maximum model costs.
func oracleDirect(g *cube.Graph, opts Options) (*core.Configuration, error) {
	cfg := core.NewConfiguration(g, core.TrainLen(g.Length))
	for id := 0; id < g.NumNodes(); id++ {
		fc, err := oracleInstallModel(cfg, id, opts.CreationDelay)
		if err != nil {
			return nil, err
		}
		oracleSetNodeError(cfg, derivation.DirectScheme(id), fc)
	}
	return cfg, nil
}

// oracleBottomUp creates models only for base time series and answers every
// aggregated node by summing base forecasts — "arguably the most commonly
// applied method in forecasting literature".
func oracleBottomUp(g *cube.Graph, opts Options) (*core.Configuration, error) {
	cfg := core.NewConfiguration(g, core.TrainLen(g.Length))
	baseFc := make(map[int][]float64, len(g.BaseIDs))
	for _, id := range g.BaseIDs {
		fc, err := oracleInstallModel(cfg, id, opts.CreationDelay)
		if err != nil {
			return nil, err
		}
		baseFc[id] = fc
		oracleSetNodeError(cfg, derivation.DirectScheme(id), fc)
	}
	h := cfg.TestLen()
	for id := 0; id < g.NumNodes(); id++ {
		n := g.Node(id)
		if n.IsBase {
			continue
		}
		bases := g.CoveredBases(id)
		fc := make([]float64, h)
		for _, b := range bases {
			for i, v := range baseFc[b] {
				fc[i] += v
			}
		}
		sc := derivation.Scheme{Target: id, Sources: bases, K: 1, Kind: derivation.Aggregation}
		oracleSetNodeError(cfg, sc, fc)
	}
	return cfg, nil
}

// oracleTopDown creates a single model at the top node and distributes its
// forecasts down the graph using the historical proportions of the data —
// the Gross/Sohl variant based on proportions of historical averages that
// the paper reports as performing best.
func oracleTopDown(g *cube.Graph, opts Options) (*core.Configuration, error) {
	cfg := core.NewConfiguration(g, core.TrainLen(g.Length))
	top := g.TopID
	topFc, err := oracleInstallModel(cfg, top, opts.CreationDelay)
	if err != nil {
		return nil, err
	}
	oracleSetNodeError(cfg, derivation.DirectScheme(top), topFc)
	for id := 0; id < g.NumNodes(); id++ {
		if id == top {
			continue
		}
		sc, err := derivation.NewScheme(g, id, []int{top}, cfg.TrainLen)
		if err != nil {
			// Zero-history node: fall back to a zero share.
			sc = derivation.Scheme{Target: id, Sources: []int{top}, K: 0, Kind: derivation.Disaggregation}
		}
		sc.Kind = derivation.Disaggregation
		fc, aerr := sc.Apply([][]float64{topFc})
		if aerr != nil {
			return nil, aerr
		}
		oracleSetNodeError(cfg, sc, fc)
	}
	return cfg, nil
}

// oracleCombine implements the optimal hierarchical combination of Hyndman et
// al.: every node gets a model, and all forecasts are reconciled through
// the summing matrix S by ordinary least squares — the reconciled base
// forecasts are β̂ = (SᵀS)⁻¹Sᵀŷ and every node is answered by Sβ̂. Model
// costs are maximal, and the regression grows with the number of base
// series (the paper could not run it on Gen10k within a day).
func oracleCombine(g *cube.Graph, opts Options) (*core.Configuration, error) {
	cfg := core.NewConfiguration(g, core.TrainLen(g.Length))
	h := cfg.TestLen()
	nodes := g.NumNodes()
	nb := len(g.BaseIDs)

	// All-nodes forecasts ŷ (rows: nodes) and the summing matrix S.
	yhat := make([][]float64, nodes)
	s := newMatrix(nodes, nb)
	basePos := make(map[int]int, nb)
	for j, b := range g.BaseIDs {
		basePos[b] = j
	}
	for id := 0; id < g.NumNodes(); id++ {
		fc, err := oracleInstallModel(cfg, id, opts.CreationDelay)
		if err != nil {
			return nil, err
		}
		yhat[id] = fc
		for _, b := range g.CoveredBases(id) {
			s.set(id, basePos[b], 1)
		}
	}

	// Solve the OLS reconciliation once per forecast step: β̂ minimizes
	// ||S·β − ŷ_step||₂. The QR factorization of S is reused across steps.
	qr, err := newQR(s)
	if err != nil {
		return nil, fmt.Errorf("hierarchical: combine: %w", err)
	}
	reconciled := make([][]float64, nodes)
	for id := range reconciled {
		reconciled[id] = make([]float64, h)
	}
	rhs := make([]float64, nodes)
	for step := 0; step < h; step++ {
		for id := 0; id < nodes; id++ {
			rhs[id] = yhat[id][step]
		}
		beta, err := qr.solve(rhs)
		if err != nil {
			return nil, fmt.Errorf("hierarchical: combine solve: %w", err)
		}
		rec, err := mulVec(s, beta)
		if err != nil {
			return nil, err
		}
		for id := 0; id < nodes; id++ {
			reconciled[id][step] = rec[id]
		}
	}
	for id := 0; id < g.NumNodes(); id++ {
		n := g.Node(id)
		sc := derivation.Scheme{Target: id, Sources: g.CoveredBases(id), K: 1, Kind: derivation.General}
		if n.IsBase {
			sc = derivation.DirectScheme(id)
		}
		oracleSetNodeError(cfg, sc, reconciled[id])
	}
	return cfg, nil
}

// oracleGreedy implements the empirical selection of Fischer et al. (BTW 2011):
// it first builds models for all nodes, then — starting from an empty
// configuration — repeatedly adds the model with the highest accuracy
// benefit, considering the traditional derivation schemes (direct,
// aggregation, disaggregation), until no model improves the overall error.
// Unused models are dropped from the final configuration (they were only
// built for evaluation), but their creation time is charged, which is why
// the approach scales poorly (Figure 9a).
func oracleGreedy(g *cube.Graph, opts Options) (*core.Configuration, error) {
	cfg := core.NewConfiguration(g, core.TrainLen(g.Length))
	nodes := g.NumNodes()
	h := cfg.TestLen()

	// Build every model up front (the defining cost of the approach).
	fcByNode := make([][]float64, nodes)
	models := make([]forecast.Model, nodes)
	seconds := make([]float64, nodes)
	var totalSeconds float64
	for id := 0; id < g.NumNodes(); id++ {
		m, d, err := oracleFitNode(cfg, id, opts.CreationDelay)
		if err != nil {
			return nil, err
		}
		models[id] = m
		seconds[id] = d.Seconds()
		totalSeconds += d.Seconds()
		fcByNode[id] = make([]float64, h)
		m.Forecast(fcByNode[id])
	}

	desc := oracleDescendants(g)

	// candidateErr evaluates, for a model at s, the error it would give
	// target t under the traditional schemes.
	testVals := func(t int) []float64 {
		return g.Node(t).Series.Values[cfg.TrainLen:]
	}
	evalScheme := func(t int, sources []int) (derivation.Scheme, float64, bool) {
		sc, err := derivation.NewScheme(g, t, sources, cfg.TrainLen)
		if err != nil {
			return derivation.Scheme{}, 0, false
		}
		fc := make([]float64, h)
		for _, s := range sources {
			for i, v := range fcByNode[s] {
				fc[i] += v
			}
		}
		for i := range fc {
			fc[i] *= sc.K
		}
		e := timeseries.SMAPE(testVals(t), fc)
		if math.IsNaN(e) {
			return derivation.Scheme{}, 0, false
		}
		if e > 1 {
			e = 1
		}
		return sc, e, true
	}

	curErr := cfg.NodeError

	selected := make(map[int]bool, nodes)
	for {
		bestGain := 0.0
		bestID := -1
		for s := 0; s < nodes; s++ {
			if selected[s] {
				continue
			}
			gain := 0.0
			// Direct benefit at the node itself.
			if e := timeseries.SMAPE(testVals(s), fcByNode[s]); !math.IsNaN(e) && e < curErr(s) {
				gain += curErr(s) - math.Min(e, 1)
			}
			// Disaggregation benefit for all nodes covered by s.
			for _, t := range desc[s] {
				if _, e, ok := evalScheme(t, []int{s}); ok && e < curErr(t) {
					gain += curErr(t) - e
				}
			}
			// Aggregation benefit for parents whose child edge would be
			// completed by s.
			for d, pid := range g.Node(s).ParentIDs {
				if pid < 0 {
					continue
				}
				edge := g.Node(pid).ChildEdges[d]
				complete := true
				for _, c := range edge {
					if c != s && !selected[c] {
						complete = false
						break
					}
				}
				if !complete {
					continue
				}
				if _, e, ok := evalScheme(pid, edge); ok && e < curErr(pid) {
					gain += curErr(pid) - e
				}
			}
			if gain > bestGain {
				bestGain = gain
				bestID = s
			}
		}
		if bestID < 0 || bestGain <= 1e-12 {
			break
		}
		// Apply the best model: install it and all improving schemes.
		s := bestID
		selected[s] = true
		cfg.Models[s] = models[s]
		cfg.ModelSeconds[s] = seconds[s]
		if e := timeseries.SMAPE(testVals(s), fcByNode[s]); !math.IsNaN(e) && math.Min(e, 1) < curErr(s) {
			cfg.SetScheme(derivation.DirectScheme(s), math.Min(e, 1))
		} else if _, ok := cfg.Scheme(s); !ok {
			cfg.SetScheme(derivation.DirectScheme(s), oracleClamp01Err(timeseries.SMAPE(testVals(s), fcByNode[s])))
		}
		for _, t := range desc[s] {
			if sc, e, ok := evalScheme(t, []int{s}); ok && e < curErr(t) {
				sc.Kind = derivation.Disaggregation
				cfg.SetScheme(sc, e)
			}
		}
		for d, pid := range g.Node(s).ParentIDs {
			if pid < 0 {
				continue
			}
			edge := g.Node(pid).ChildEdges[d]
			complete := true
			for _, c := range edge {
				if !selected[c] {
					complete = false
					break
				}
			}
			if !complete {
				continue
			}
			if sc, e, ok := evalScheme(pid, edge); ok && e < curErr(pid) {
				sc.Kind = derivation.Aggregation
				cfg.SetScheme(sc, e)
			}
		}
	}
	// All models were created; the configuration keeps only the selected
	// ones but the total creation cost was paid.
	cfg.CostSeconds = totalSeconds
	return cfg, nil
}

// oracleDescendants precomputes, for every node, the strict descendants (nodes
// whose series contribute to it — the disaggregation targets of a model at
// that node). Built once by walking each node's ancestor closure, which is
// linear in the total number of (node, ancestor) pairs.
func oracleDescendants(g *cube.Graph) [][]int {
	out := make([][]int, g.NumNodes())
	for id := 0; id < g.NumNodes(); id++ {
		seen := map[int]bool{id: true}
		queue := []int{id}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, p := range g.Node(cur).ParentIDs {
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

func oracleClamp01Err(e float64) float64 {
	if math.IsNaN(e) {
		return 1
	}
	if e < 0 {
		return 0
	}
	if e > 1 {
		return 1
	}
	return e
}

// oracleCombineWLS is a weighted variant of Combine implementing the MinT-WLS
// reconciliation of Hyndman et al.'s later work (a documented extension
// beyond the paper): base-forecast residual variances weight the
// least-squares reconciliation, so noisy nodes influence the reconciled
// forecasts less:
//
//	β̂ = argmin (ŷ − S·β)ᵀ W⁻¹ (ŷ − S·β),  W = diag(σ̂²)
//
// computed by rescaling each row of S and ŷ by 1/σ̂ and solving the
// ordinary least-squares problem.
func oracleCombineWLS(g *cube.Graph, opts Options) (*core.Configuration, error) {
	cfg := core.NewConfiguration(g, core.TrainLen(g.Length))
	h := cfg.TestLen()
	nodes := g.NumNodes()
	nb := len(g.BaseIDs)

	yhat := make([][]float64, nodes)
	sigma := make([]float64, nodes)
	s := newMatrix(nodes, nb)
	basePos := make(map[int]int, nb)
	for j, b := range g.BaseIDs {
		basePos[b] = j
	}
	for id := 0; id < g.NumNodes(); id++ {
		m, d, err := oracleFitNode(cfg, id, opts.CreationDelay)
		if err != nil {
			return nil, err
		}
		cfg.Models[id] = m
		cfg.ModelSeconds[id] = d.Seconds()
		cfg.CostSeconds += d.Seconds()
		yhat[id] = make([]float64, h)
		m.Forecast(yhat[id])
		sigma[id] = 1
		if u, ok := m.(forecast.Uncertainty); ok && u.ResidualStd() > 0 {
			sigma[id] = u.ResidualStd()
		}
		for _, b := range g.CoveredBases(id) {
			s.set(id, basePos[b], 1)
		}
	}

	// Row-scale S by 1/σ once; the same scaling applies to every step's
	// right-hand side.
	ws := newMatrix(nodes, nb)
	copy(ws.data, s.data)
	for i := 0; i < nodes; i++ {
		for j := 0; j < nb; j++ {
			ws.set(i, j, ws.at(i, j)/sigma[i])
		}
	}
	qr, err := newQR(ws)
	if err != nil {
		return nil, fmt.Errorf("hierarchical: combine-wls: %w", err)
	}
	reconciled := make([][]float64, nodes)
	for id := range reconciled {
		reconciled[id] = make([]float64, h)
	}
	rhs := make([]float64, nodes)
	for step := 0; step < h; step++ {
		for id := 0; id < nodes; id++ {
			rhs[id] = yhat[id][step] / sigma[id]
		}
		beta, err := qr.solve(rhs)
		if err != nil {
			return nil, fmt.Errorf("hierarchical: combine-wls solve: %w", err)
		}
		rec, err := mulVec(s, beta)
		if err != nil {
			return nil, err
		}
		for id := 0; id < nodes; id++ {
			reconciled[id][step] = rec[id]
		}
	}
	for id := 0; id < g.NumNodes(); id++ {
		n := g.Node(id)
		sc := derivation.Scheme{Target: id, Sources: g.CoveredBases(id), K: 1, Kind: derivation.General}
		if n.IsBase {
			sc = derivation.DirectScheme(id)
		}
		oracleSetNodeError(cfg, sc, reconciled[id])
	}
	return cfg, nil
}

// baselineDigest folds what a baseline decides into one FNV-64a: the sorted
// model IDs, then per node the scheme's sources, weight bits, kind and the
// node's error bits.
func baselineDigest(cfg *core.Configuration) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, id := range cfg.ModelIDs() {
		put(uint64(id))
	}
	for t := 0; t < cfg.Graph.NumNodes(); t++ {
		sc := cfg.Schemes[t]
		put(uint64(len(sc.Sources)))
		for _, s := range sc.Sources {
			put(uint64(s))
		}
		put(math.Float64bits(sc.K))
		put(uint64(sc.Kind))
		put(math.Float64bits(cfg.Errors[t]))
	}
	return h.Sum64()
}

// TestBaselinesTwin holds every builder to its oracle bit for bit on the
// three named data sets, a 300-base GenX set and a 330-node GenCube.
func TestBaselinesTwin(t *testing.T) {
	sets := map[string]*datasets.Dataset{
		"tourism": datasets.Tourism(42),
		"sales":   datasets.Sales(42),
		"energy":  datasets.Energy(42, datasets.EnergyOptions{Customers: 30, Days: 40}),
		"gen300":  datasets.GenX(42, 300),
		"gencube": datasets.GenCube(3, datasets.CubeGenOptions{DimCards: [][]int{{24, 5}, {8, 2}}, Length: 36, Period: 4}),
	}
	type builder func(*cube.Graph, Options) (*core.Configuration, error)
	builders := []struct {
		name      string
		got, want builder
	}{
		{"direct", Direct, oracleDirect},
		{"bottom-up", BottomUp, oracleBottomUp},
		{"top-down", TopDown, oracleTopDown},
		{"combine", Combine, oracleCombine},
		{"combine-wls", CombineWLS, oracleCombineWLS},
		{"greedy", Greedy, oracleGreedy},
	}
	for name, ds := range sets {
		for _, b := range builders {
			// Each side gets its own graph: materialization order must not
			// matter either.
			digest := func(f builder) uint64 {
				g, err := ds.Graph()
				if err != nil {
					t.Fatal(err)
				}
				cfg, err := f(g, Options{})
				if err != nil {
					t.Fatalf("%s/%s: %v", name, b.name, err)
				}
				return baselineDigest(cfg)
			}
			if got, want := digest(b.got), digest(b.want); got != want {
				t.Errorf("%s/%s: digest %#x, oracle %#x", name, b.name, got, want)
			}
		}
	}
}

// mulVec returns m·x for a vector x of length m.cols.
func mulVec(m *matrix, x []float64) ([]float64, error) {
	if len(x) != m.cols {
		return nil, fmt.Errorf("mulVec dimension mismatch %dx%d · %d", m.rows, m.cols, len(x))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var acc float64
		for j, v := range row {
			acc += v * x[j]
		}
		out[i] = acc
	}
	return out, nil
}
