package core

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"cubefc/internal/cube"
	"cubefc/internal/datasets"
	"cubefc/internal/derivation"
	"cubefc/internal/forecast"
	"cubefc/internal/optimize"
	"cubefc/internal/timeseries"
)

// seasonalCube builds a two-dimensional cube with correlated siblings:
// product patterns scaled per city, plus noise. Large enough for the
// advisor to have meaningful choices, small enough for fast tests.
func seasonalCube(t *testing.T, seed int64) *cube.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	products := []string{"P1", "P2", "P3"}
	loc, err := cube.NewHierarchy("location", []string{"city", "region"},
		[]map[string]string{{"C1": "R1", "C2": "R1", "C3": "R2", "C4": "R2"}})
	if err != nil {
		t.Fatal(err)
	}
	dims := []cube.Dimension{cube.NewDimension("product", "product"), loc}
	var base []cube.BaseSeries
	for pi, p := range products {
		for _, c := range []string{"C1", "C2", "C3", "C4"} {
			vals := make([]float64, 40)
			level := 20 + 10*float64(pi) + 5*rng.Float64()
			for i := range vals {
				season := 1 + 0.3*math.Sin(2*math.Pi*float64(i%4)/4+float64(pi))
				vals[i] = level * season * (1 + 0.05*rng.NormFloat64())
			}
			base = append(base, cube.BaseSeries{Members: []string{p, c}, Series: timeseries.New(vals, 4)})
		}
	}
	g, err := cube.NewGraph(dims, base)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewConfiguration(t *testing.T) {
	g := seasonalCube(t, 1)
	cfg := NewConfiguration(g, 32)
	if cfg.NumModels() != 0 {
		t.Fatal("fresh configuration should be empty")
	}
	if cfg.Error() != 1 {
		t.Fatalf("error of empty configuration = %v, want 1 (all nodes unanswerable)", cfg.Error())
	}
	if cfg.TestLen() != g.Length-32 {
		t.Fatal("TestLen wrong")
	}
}

func TestConfigurationValidate(t *testing.T) {
	g := seasonalCube(t, 1)
	cfg := NewConfiguration(g, 32)
	// Scheme referencing a model-less source must fail.
	cfg.Schemes[0] = derivation.Scheme{Target: 0, Sources: []int{1}, K: 1}
	if err := cfg.Validate(); err == nil {
		t.Fatal("scheme with model-less source should fail validation")
	}
	delete(cfg.Schemes, 0)
	// Model without scheme must fail.
	m := forecast.NewNaive()
	if err := m.Fit(g.Node(0).Series); err != nil {
		t.Fatal(err)
	}
	cfg.Models[0] = m
	if err := cfg.Validate(); err == nil {
		t.Fatal("model without scheme should fail validation")
	}
	cfg.Schemes[0] = derivation.DirectScheme(0)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Out-of-range error must fail.
	cfg.Errors[0] = 2
	if err := cfg.Validate(); err == nil {
		t.Fatal("error > 1 should fail validation")
	}
	cfg.Errors[0] = 0.1
	// Mis-keyed scheme must fail.
	cfg.Schemes[5] = derivation.DirectScheme(0)
	if err := cfg.Validate(); err == nil {
		t.Fatal("scheme stored under wrong node should fail validation")
	}
}

func TestFitModelMeasuresDelay(t *testing.T) {
	g := seasonalCube(t, 1)
	cfg := NewConfiguration(g, 32)
	_, dur, err := cfg.FitModelOn(func(p int) forecast.Model { return forecast.NewNaive() }, g.Node(0).Series.Slice(0, 32), 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if dur < 30*time.Millisecond {
		t.Fatalf("creation time %v should include the artificial delay", dur)
	}
}

func TestAdvisorImprovesOverInitial(t *testing.T) {
	g := seasonalCube(t, 1)
	adv, err := NewAdvisor(g, Options{Seed: 1, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	initial := adv.Configuration().Error()
	cfg, err := Run(g, Options{Seed: 1, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Error() >= initial {
		t.Fatalf("advisor did not improve: %v -> %v", initial, cfg.Error())
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAdvisorInitialConfigurationIsComplete(t *testing.T) {
	g := seasonalCube(t, 1)
	adv, err := NewAdvisor(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := adv.Configuration()
	if cfg.NumModels() != 1 {
		t.Fatalf("initial configuration has %d models, want 1 (top node)", cfg.NumModels())
	}
	if _, ok := cfg.Models[g.TopID]; !ok {
		t.Fatal("initial model must be at the top node (Figure 4a)")
	}
	for id := 0; id < g.NumNodes(); id++ {
		if _, ok := cfg.Schemes[id]; !ok {
			t.Fatalf("node %d lacks an initial scheme", id)
		}
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAdvisorAnytimeStep(t *testing.T) {
	g := seasonalCube(t, 2)
	adv, err := NewAdvisor(g, Options{Seed: 2, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		done, err := adv.Step()
		if err != nil {
			t.Fatal(err)
		}
		// The configuration must stay valid after every step.
		if verr := adv.Configuration().Validate(); verr != nil {
			t.Fatalf("step %d: %v", i, verr)
		}
		if done {
			break
		}
	}
}

func TestAdvisorStepAfterTermination(t *testing.T) {
	g := seasonalCube(t, 3)
	adv, err := NewAdvisor(g, Options{Seed: 3, MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	for {
		done, err := adv.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	// α-exhausted advisors report ErrStopped on further steps.
	for i := 0; i < 50; i++ {
		done, err := adv.Step()
		if done && err != nil {
			return // reached the terminal state
		}
		if done {
			return
		}
		_ = err
	}
}

func TestAdvisorMaxModels(t *testing.T) {
	g := seasonalCube(t, 4)
	cfg, err := Run(g, Options{Seed: 4, MaxModels: 3, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumModels() > 3 {
		t.Fatalf("models = %d exceeds budget 3", cfg.NumModels())
	}
}

func TestAdvisorTargetError(t *testing.T) {
	g := seasonalCube(t, 5)
	cfg, err := Run(g, Options{Seed: 5, TargetError: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	// Initial config already satisfies such a loose target.
	if cfg.NumModels() > 3 {
		t.Fatalf("loose target error should stop early, got %d models", cfg.NumModels())
	}
}

func TestAdvisorContextCancel(t *testing.T) {
	g := seasonalCube(t, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: Run must return promptly with the initial config
	cfg, err := Run(g, Options{Seed: 6, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumModels() != 1 {
		t.Fatalf("canceled advisor should keep the initial configuration, got %d models", cfg.NumModels())
	}
}

func TestAdvisorMaxIterations(t *testing.T) {
	g := seasonalCube(t, 7)
	iters := 0
	_, err := Run(g, Options{Seed: 7, MaxIterations: 2, OnIteration: func(s Snapshot) { iters = s.Iteration }})
	if err != nil {
		t.Fatal(err)
	}
	if iters > 2 {
		t.Fatalf("ran %d iterations, limit 2", iters)
	}
}

func TestAdvisorSnapshots(t *testing.T) {
	g := seasonalCube(t, 8)
	var snaps []Snapshot
	_, err := Run(g, Options{Seed: 8, OnIteration: func(s Snapshot) { snaps = append(snaps, s) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots emitted")
	}
	for i, s := range snaps {
		if s.Iteration != i+1 {
			t.Fatalf("snapshot %d has iteration %d", i, s.Iteration)
		}
		if s.Error < 0 || s.Error > 1 {
			t.Fatalf("snapshot error %v out of range", s.Error)
		}
		if s.Models < 1 {
			t.Fatal("model count dropped below 1")
		}
	}
	// α must be non-decreasing across iterations.
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Alpha < snaps[i-1].Alpha {
			t.Fatal("alpha decreased")
		}
	}
}

func TestAdvisorErrorMatchesIncrementalSum(t *testing.T) {
	g := seasonalCube(t, 9)
	adv, err := NewAdvisor(g, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		done, err := adv.Step()
		if err != nil {
			t.Fatal(err)
		}
		// Recompute the error sum from scratch and compare with the
		// incrementally maintained one.
		var want float64
		for id := 0; id < g.NumNodes(); id++ {
			want += adv.currentErr(id)
		}
		if math.Abs(want-adv.errSum) > 1e-6 {
			t.Fatalf("iteration %d: errSum drifted: %v vs %v", i, adv.errSum, want)
		}
		if done {
			break
		}
	}
}

func TestPinnedAlphaCostSensitivity(t *testing.T) {
	g := seasonalCube(t, 10)
	low, err := Run(g, Options{Seed: 10, Alpha0: 0.2, AlphaMax: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(g, Options{Seed: 10, Alpha0: 1.0, AlphaMax: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if low.NumModels() > high.NumModels() {
		t.Fatalf("α=0.2 (%d models) must not exceed α=1.0 (%d models)",
			low.NumModels(), high.NumModels())
	}
	if high.Error() > low.Error()+1e-9 {
		t.Fatalf("α=1.0 error %v must not exceed α=0.2 error %v", high.Error(), low.Error())
	}
}

func TestConfigurationForecast(t *testing.T) {
	g := seasonalCube(t, 11)
	cfg, err := Run(g, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{g.TopID, g.BaseIDs[0], g.BaseIDs[len(g.BaseIDs)-1]} {
		fc, err := cfg.Forecast(id, 4)
		if err != nil {
			t.Fatalf("forecast node %d: %v", id, err)
		}
		if len(fc) != 4 {
			t.Fatalf("horizon mismatch: %d", len(fc))
		}
		for _, v := range fc {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite forecast %v at node %d", fc, id)
			}
		}
	}
	if _, err := cfg.Forecast(-1, 1); err == nil {
		t.Fatal("forecast of unknown node should fail")
	}
}

func TestInvNormCDF(t *testing.T) {
	cases := map[float64]float64{
		0.5:    0,
		0.975:  1.959964,
		0.025:  -1.959964,
		0.8413: 0.99982, // ≈ 1σ
	}
	for p, want := range cases {
		if got := optimize.InvNormCDF(p); math.Abs(got-want) > 1e-3 {
			t.Errorf("optimize.InvNormCDF(%v) = %v, want %v", p, got, want)
		}
	}
	if !math.IsInf(optimize.InvNormCDF(0), -1) || !math.IsInf(optimize.InvNormCDF(1), 1) {
		t.Error("boundary values should be ±Inf")
	}
}

func TestDefaultModelFactory(t *testing.T) {
	if m := DefaultModelFactory(12); m.Name() != "hw-add" {
		t.Fatalf("seasonal default = %s, want hw-add", m.Name())
	}
	if m := DefaultModelFactory(1); m.Name() != "holt" {
		t.Fatalf("non-seasonal default = %s, want holt", m.Name())
	}
}

func TestAdvisorRejectsShortSeries(t *testing.T) {
	loc := cube.NewDimension("loc", "loc")
	base := []cube.BaseSeries{{Members: []string{"A"}, Series: timeseries.New([]float64{1, 2}, 0)}}
	g, err := cube.NewGraph([]cube.Dimension{loc}, base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAdvisor(g, Options{}); err == nil {
		t.Fatal("advisor on a 2-point series should fail")
	}
}

func TestAdvisorDeletionKeepsValidity(t *testing.T) {
	g := seasonalCube(t, 12)
	var sawDeletion bool
	cfg, err := Run(g, Options{Seed: 12, OnIteration: func(s Snapshot) {
		if s.Deleted > 0 {
			sawDeletion = true
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	_ = sawDeletion // deletions are data dependent; validity is the invariant
}

func TestAdvisorDisableDeletion(t *testing.T) {
	g := seasonalCube(t, 13)
	_, err := Run(g, Options{Seed: 13, DisableDeletion: true, OnIteration: func(s Snapshot) {
		if s.Deleted > 0 {
			t.Error("deletion happened despite DisableDeletion")
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAdvisorFixedGamma(t *testing.T) {
	g := seasonalCube(t, 14)
	gamma := 0.8
	_, err := Run(g, Options{Seed: 14, FixedGamma: true, Gamma0: gamma, OnIteration: func(s Snapshot) {
		if s.Gamma != gamma {
			t.Errorf("gamma moved to %v despite FixedGamma", s.Gamma)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSchemeSourcesAlwaysModeled(t *testing.T) {
	g := seasonalCube(t, 15)
	cfg, err := Run(g, Options{Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	for id, sc := range cfg.Schemes {
		for _, s := range sc.Sources {
			if _, ok := cfg.Models[s]; !ok {
				t.Fatalf("node %d scheme uses model-less source %d", id, s)
			}
		}
	}
}

func TestIndicatorFractionControlsSize(t *testing.T) {
	g := seasonalCube(t, 16)
	a, err := NewAdvisor(g, Options{IndicatorFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewAdvisor(g, Options{IndicatorFraction: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if a.IndicatorSize() >= b.IndicatorSize() {
		t.Fatalf("|I| 10%% (%d) should be below 100%% (%d)", a.IndicatorSize(), b.IndicatorSize())
	}
	if b.IndicatorSize() != g.NumNodes()-1 {
		t.Fatalf("|I| at 100%% = %d, want %d", b.IndicatorSize(), g.NumNodes()-1)
	}
}

func TestCreationDelayChargesCost(t *testing.T) {
	g := seasonalCube(t, 17)
	cfg, err := Run(g, Options{Seed: 17, MaxIterations: 2, CreationDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.CostSeconds < 0.01 {
		t.Fatalf("cost %v should include the artificial delays", cfg.CostSeconds)
	}
}

func TestAdvisorCloseIdempotent(t *testing.T) {
	g := seasonalCube(t, 19)
	adv, err := NewAdvisor(g, Options{Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adv.Step(); err != nil {
		t.Fatal(err)
	}
	adv.Close()
	adv.Close() // second Close must be a no-op
	// A closed advisor owns nothing Close could have torn down: it steps on.
	if _, err := adv.Step(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigurationReport(t *testing.T) {
	g := seasonalCube(t, 20)
	cfg, err := Run(g, Options{Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	r := cfg.Report()
	if r.Nodes != g.NumNodes() || r.Models != cfg.NumModels() {
		t.Fatalf("report totals %d/%d", r.Nodes, r.Models)
	}
	var nodes, models, kinds int
	for _, d := range r.Depths {
		nodes += d.Nodes
		models += d.Models
		if d.MeanError < 0 || d.MeanError > 1 {
			t.Fatalf("depth %d mean error %v", d.Depth, d.MeanError)
		}
	}
	for _, c := range r.SchemeKinds {
		kinds += c
	}
	if nodes != r.Nodes || models != r.Models || kinds != r.Nodes {
		t.Fatalf("report inconsistent: nodes %d models %d kinds %d", nodes, models, kinds)
	}
	// Depths ascending.
	for i := 1; i < len(r.Depths); i++ {
		if r.Depths[i].Depth <= r.Depths[i-1].Depth {
			t.Fatal("depths not ascending")
		}
	}
	var buf strings.Builder
	r.Fprint(&buf)
	if !strings.Contains(buf.String(), "derivation kinds:") {
		t.Fatal("Fprint incomplete")
	}
}

func TestIndicatorEntriesBudget(t *testing.T) {
	// On a cube with more than 1024 nodes the memory budget, not the graph
	// size, sets |I|: indicatorEntries / 1024 holders.
	g, err := datasets.GenCube(1, datasets.CubeGenForNodes(5000, 2)).Graph()
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAdvisor(g, Options{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := a.IndicatorSize(), 4_000_000/1024; got != want || got >= g.NumNodes()-1 {
		t.Fatalf("|I| = %d on %d nodes, want %d: the memory budget should restrict it", got, g.NumNodes(), want)
	}
}

func TestAdvisorDeterministicWithFixedGamma(t *testing.T) {
	// With the time-based γ feedback disabled, two runs with identical
	// options must produce identical configurations.
	g := seasonalCube(t, 24)
	opts := Options{Seed: 24, FixedGamma: true, Gamma0: 0.8, Parallelism: 2}
	a, err := Run(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Error() != b.Error() || a.NumModels() != b.NumModels() {
		t.Fatalf("non-deterministic: %v/%d vs %v/%d", a.Error(), a.NumModels(), b.Error(), b.NumModels())
	}
	// Creation time reaches no decision once γ is pinned: slower fits
	// choose the same configuration.
	opts.CreationDelay = time.Millisecond
	c, err := Run(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if da, db, dc := configDigest(a), configDigest(b), configDigest(c); da != db || da != dc {
		t.Fatalf("configurations differ: digests %#x, %#x, delayed %#x", da, db, dc)
	}
	am, bm := a.ModelIDs(), b.ModelIDs()
	for i := range am {
		if am[i] != bm[i] {
			t.Fatalf("model sets differ: %v vs %v", am, bm)
		}
	}
}

// TestEmittedModelsAreAllSources: every model in a configuration the
// advisor hands out is read by at least one scheme — a model whose users
// all moved to better sources is swept, with its cost. Without the sweep
// four of these seeds leave such a model behind.
func TestEmittedModelsAreAllSources(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		g := seasonalCube(t, seed)
		cfg, err := Run(g, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		used := make(map[int]bool)
		for _, sc := range cfg.Schemes {
			for _, s := range sc.Sources {
				used[s] = true
			}
		}
		var cost float64
		for id := range cfg.Models {
			if !used[id] {
				t.Errorf("seed %d: model at node %d (%s) is no scheme's source", seed, id, g.KeyOf(id))
			}
			cost += cfg.ModelSeconds[id]
		}
		if len(cfg.ModelSeconds) != len(cfg.Models) || math.Abs(cost-cfg.CostSeconds) > 1e-9 {
			t.Errorf("seed %d: cost %v over %d entries does not match %d models costing %v",
				seed, cfg.CostSeconds, len(cfg.ModelSeconds), len(cfg.Models), cost)
		}
	}
}

// TestAdvisorCachesBounded is the regression test for the candLoc/modelFc
// growth bug: over a long anytime run the candidate-local cache must not
// retain entries for permanently rejected nodes once the α schedule moved
// past them, and the forecast cache must track the model set exactly.
func TestAdvisorCachesBounded(t *testing.T) {
	g := seasonalCube(t, 2)
	a, err := NewAdvisor(g, Options{Seed: 1, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < 500; i++ {
		done, err := a.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if len(a.modelFc) != a.cfg.NumModels() {
		t.Fatalf("modelFc holds %d forecasts for %d models", len(a.modelFc), a.cfg.NumModels())
	}
	// Termination goes through an α raise, which evicts rejected nodes.
	for id := range a.candLoc {
		if a.rejected[id] {
			t.Fatalf("candLoc retains rejected node %d after α moved on", id)
		}
	}
	for k := range a.warmSeeds {
		if a.rejected[k.node] {
			t.Fatalf("warmSeeds retains rejected node %d after α moved on", k.node)
		}
	}
	// Caches must stay within the graph size even after hundreds of
	// iterations (the unbounded-growth failure mode accumulated one local
	// indicator per candidate per iteration).
	if len(a.candLoc) > g.NumNodes() {
		t.Fatalf("candLoc grew to %d entries on a %d-node graph", len(a.candLoc), g.NumNodes())
	}
}

func TestResolveSchemeBackfill(t *testing.T) {
	g := seasonalCube(t, 3)
	cfg, err := Run(g, Options{Seed: 1, MaxIterations: 2, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Drop a scheme to simulate a node no model could be evaluated for,
	// then resolve it back.
	victim := -1
	for id := range cfg.Schemes {
		if _, hasModel := cfg.Models[id]; !hasModel {
			victim = id
			break
		}
	}
	if victim < 0 {
		t.Skip("no derived-only node in configuration")
	}
	delete(cfg.Schemes, victim)
	sc, err := cfg.ResolveScheme(victim)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Target != victim || len(sc.Sources) == 0 {
		t.Fatalf("resolved scheme malformed: %+v", sc)
	}
	if _, ok := cfg.Schemes[victim]; !ok {
		t.Fatal("ResolveScheme must backfill the configuration")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}
