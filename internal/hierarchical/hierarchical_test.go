package hierarchical

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/derivation"
	"cubefc/internal/timeseries"
)

// testCube builds a small two-level cube with correlated siblings.
func testCube(t *testing.T, seed int64) *cube.Graph {
	t.Helper()
	return scaledTestCube(t, seed, 1)
}

// scaledTestCube is testCube with every observation multiplied by scale.
func scaledTestCube(t *testing.T, seed int64, scale float64) *cube.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	loc, err := cube.NewHierarchy("location", []string{"city", "region"},
		[]map[string]string{{"C1": "R1", "C2": "R1", "C3": "R2", "C4": "R2"}})
	if err != nil {
		t.Fatal(err)
	}
	var base []cube.BaseSeries
	for i, c := range []string{"C1", "C2", "C3", "C4"} {
		vals := make([]float64, 40)
		level := 10 + 5*float64(i)
		for tt := range vals {
			season := 1 + 0.3*math.Sin(2*math.Pi*float64(tt%4)/4)
			vals[tt] = level * season * (1 + 0.05*rng.NormFloat64()) * scale
		}
		base = append(base, cube.BaseSeries{Members: []string{c}, Series: timeseries.New(vals, 4)})
	}
	g, err := cube.NewGraph([]cube.Dimension{loc}, base)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDirectStructure(t *testing.T) {
	g := testCube(t, 1)
	cfg, err := Direct(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumModels() != g.NumNodes() {
		t.Fatalf("direct models = %d, want %d", cfg.NumModels(), g.NumNodes())
	}
	for id, sc := range cfg.Schemes {
		if sc.Kind != derivation.Direct || sc.Sources[0] != id {
			t.Fatalf("node %d: scheme %+v is not direct", id, sc)
		}
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBottomUpStructure(t *testing.T) {
	g := testCube(t, 2)
	cfg, err := BottomUp(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumModels() != len(g.BaseIDs) {
		t.Fatalf("bottom-up models = %d, want %d", cfg.NumModels(), len(g.BaseIDs))
	}
	// Aggregated nodes use aggregation schemes with weight 1 over base
	// nodes.
	for id := 0; id < g.NumNodes(); id++ {
		sc := cfg.Schemes[id]
		if g.IsBase(id) {
			if sc.Kind != derivation.Direct {
				t.Fatalf("base node %d not direct", id)
			}
			continue
		}
		if sc.Kind != derivation.Aggregation || sc.K != 1 {
			t.Fatalf("aggregated node %d: %+v", id, sc)
		}
		if len(sc.Sources) != g.CoveredBaseCount(id) {
			t.Fatalf("node %d: sources %v", id, sc.Sources)
		}
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTopDownStructure(t *testing.T) {
	g := testCube(t, 3)
	cfg, err := TopDown(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumModels() != 1 {
		t.Fatalf("top-down models = %d, want 1", cfg.NumModels())
	}
	if _, ok := cfg.Models[g.TopID]; !ok {
		t.Fatal("top-down model must sit at the top node")
	}
	// Shares of sibling disaggregation weights under the top must sum
	// to 1 across the complete partition (the cities).
	var share float64
	for _, id := range g.BaseIDs {
		share += cfg.Schemes[id].K
	}
	if math.Abs(share-1) > 1e-9 {
		t.Fatalf("city shares sum to %v, want 1", share)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCombineReconciles(t *testing.T) {
	g := testCube(t, 4)
	cfg, err := Combine(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumModels() != g.NumNodes() {
		t.Fatalf("combine models = %d, want all", cfg.NumModels())
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Reconciliation property: the reconciled forecasts are consistent —
	// parent forecast equals the sum of child forecasts. Verify via the
	// assigned errors being within range (structural detail: forecast
	// consistency is embedded in construction through S·β̂).
	for id, e := range cfg.Errors {
		if _, ok := cfg.Scheme(id); ok && (e < 0 || e > 1) {
			t.Fatalf("node %d error %v out of range", id, e)
		}
	}
}

func TestGreedySubsetAndImprovement(t *testing.T) {
	g := testCube(t, 5)
	greedy, err := Greedy(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Direct(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if greedy.NumModels() > direct.NumModels() {
		t.Fatal("greedy cannot hold more models than direct")
	}
	if greedy.NumModels() == 0 {
		t.Fatal("greedy selected nothing")
	}
	// Greedy considers direct schemes among its options, so it cannot be
	// worse than the best single addition; sanity: error in range and at
	// most the top-down error.
	td, err := TopDown(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Error() > td.Error()+1e-9 {
		t.Fatalf("greedy error %v worse than top-down %v", greedy.Error(), td.Error())
	}
	if err := greedy.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyChargesAllCreations(t *testing.T) {
	g := testCube(t, 6)
	cfg, err := Greedy(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// All models were built even though only a subset is kept; the cost
	// must reflect every creation (that is greedy's weakness in Fig 9a).
	var keptCost float64
	for _, s := range cfg.ModelSeconds {
		keptCost += s
	}
	if cfg.CostSeconds < keptCost {
		t.Fatalf("total cost %v below kept-model cost %v", cfg.CostSeconds, keptCost)
	}
}

func TestBaselinesOrderingOnCorrelatedCube(t *testing.T) {
	// On a cube with strongly correlated siblings and noisy bases, the
	// errors of all approaches stay in [0, 1] and bottom-up tracks direct
	// closely (both model base series).
	g := testCube(t, 7)
	bu, err := BottomUp(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	di, err := Direct(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bu.Error()-di.Error()) > 0.1 {
		t.Fatalf("bottom-up %v and direct %v should be close on this cube", bu.Error(), di.Error())
	}
}

// TestTrainRatioRespected: what Fig. 7 needs — every baseline evaluates on the
// same part of the series as the advisor, the split of core.TrainLen.
func TestTrainRatioRespected(t *testing.T) {
	g := testCube(t, 8)
	want := core.TrainLen(g.Length)
	// γ and the worker count pinned, as the benchmark's advisor runs: no
	// clock or CPU count decides the configuration under the test. The run
	// is no longer cut at one iteration, which kept one model whatever γ.
	adv, err := core.Run(g, core.Options{Seed: 8, FixedGamma: true, Gamma0: 0.5, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n := adv.NumModels(); n < 2 {
		t.Fatalf("the pinned advisor run keeps %d models, want at least 2", n)
	}
	if adv.TrainLen != want {
		t.Fatalf("advisor train len = %d, want %d", adv.TrainLen, want)
	}
	for name, f := range map[string]func(*cube.Graph, Options) (*core.Configuration, error){
		"direct": Direct, "bottom-up": BottomUp, "top-down": TopDown,
		"combine": Combine, "combine-wls": CombineWLS, "greedy": Greedy,
	} {
		cfg, err := f(g, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cfg.TrainLen != want {
			t.Fatalf("%s: train len = %d, want %d", name, cfg.TrainLen, want)
		}
	}
}

func TestDescendantsPrecomputation(t *testing.T) {
	g := testCube(t, 9)
	desc := descendants(g)
	// Top covers every other node.
	if len(desc[g.TopID]) != g.NumNodes()-1 {
		t.Fatalf("top descendants = %d, want %d", len(desc[g.TopID]), g.NumNodes()-1)
	}
	// Base nodes cover nothing.
	for _, id := range g.BaseIDs {
		if len(desc[id]) != 0 {
			t.Fatalf("base node %d has descendants %v", id, desc[id])
		}
	}
	// Region nodes cover exactly their two cities.
	r1, _ := g.LookupID([]byte("region=R1"))
	if len(desc[r1]) != 2 {
		t.Fatalf("region descendants = %v", desc[r1])
	}
}

func TestBaselinesWithArtificialDelayChargeCosts(t *testing.T) {
	g := testCube(t, 10)
	cfg, err := TopDown(g, Options{CreationDelay: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.CostSeconds < 0.02 {
		t.Fatalf("top-down cost %v should include the 20ms delay", cfg.CostSeconds)
	}
	direct, err := Direct(g, Options{CreationDelay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if direct.CostSeconds < 0.005*float64(g.NumNodes()) {
		t.Fatalf("direct cost %v should scale with node count", direct.CostSeconds)
	}
}

func TestBaselinesFallBackOnShortSeries(t *testing.T) {
	// Series too short for the default Holt-Winters: the fallback chain
	// must keep every baseline usable.
	loc := cube.NewDimension("loc", "loc")
	var base []cube.BaseSeries
	for _, m := range []string{"A", "B"} {
		base = append(base, cube.BaseSeries{
			Members: []string{m},
			Series:  timeseries.New([]float64{5, 6, 7, 8, 9, 10}, 12),
		})
	}
	g, err := cube.NewGraph([]cube.Dimension{loc}, base)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(*cube.Graph, Options) (*core.Configuration, error){
		"direct": Direct, "bottom-up": BottomUp, "top-down": TopDown, "greedy": Greedy, "combine": Combine,
	} {
		cfg, err := f(g, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestCombineWLS(t *testing.T) {
	g := testCube(t, 11)
	wls, err := CombineWLS(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := wls.Validate(); err != nil {
		t.Fatal(err)
	}
	if wls.NumModels() != g.NumNodes() {
		t.Fatalf("combine-wls models = %d, want all", wls.NumModels())
	}
	// Same cost structure as Combine, errors in range, and on this cube
	// the weighted variant should be at least competitive with OLS.
	ols, err := Combine(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if wls.Error() > ols.Error()*1.25 {
		t.Fatalf("combine-wls error %v much worse than OLS %v", wls.Error(), ols.Error())
	}
}

// TestCombineWLSScaleInvariant: SMAPE is scale free and WLS divides every
// row by its node's σ̂, so multiplying the whole cube by a constant must
// leave the reconciled error where it is, and no scale may make the QR
// solve call the scaled summing matrix singular.
func TestCombineWLSScaleInvariant(t *testing.T) {
	var want float64
	for i, scale := range []float64{1, 1e-9, 1e12, 1e15, 1e100} {
		cfg, err := CombineWLS(scaledTestCube(t, 11, scale), Options{})
		if err != nil {
			t.Fatalf("scale %g: %v", scale, err)
		}
		if i == 0 {
			want = cfg.Error()
		} else if math.Abs(cfg.Error()-want) > 1e-6 {
			t.Errorf("scale %g: error %v, want %v (scale 1)", scale, cfg.Error(), want)
		}
	}
}
