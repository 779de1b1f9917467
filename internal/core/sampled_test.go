package core

import (
	"testing"

	"cubefc/internal/cube"
	"cubefc/internal/datasets"
)

// sampledTestCube builds a moderately sized multi-dimensional cube.
func sampledTestCube(t *testing.T) *datasets.Dataset {
	t.Helper()
	return datasets.GenCube(3, datasets.CubeGenOptions{
		DimCards: [][]int{{24, 5}, {8, 2}},
		Length:   36,
		Period:   4,
	})
}

// materializedAbove counts the materialized nodes that cover more than pop
// base series. It materializes the rest of them: the graph tells how many
// nodes exist, not which.
func materializedAbove(g *cube.Graph, pop int) int {
	before, large := g.MaterializedNodes(), 0
	for id := 0; id < g.NumNodes(); id++ {
		if g.CoveredBaseCount(id) > pop {
			large++
			g.Node(id)
		}
	}
	return large - (g.MaterializedNodes() - before)
}

func TestSampledAdvisorOnLazyCube(t *testing.T) {
	d := sampledTestCube(t)
	g, err := d.Graph()
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	adv, err := NewAdvisor(g, Options{
		Seed: 42,
		// Small reservoir and a tight indicator size so the advisor's
		// touch set stays a strict subset of this (deliberately small)
		// cube; production-scale runs use the defaults. The pinned, wide
		// preselection net makes the run reproducible and lets it accept
		// models beyond the initial one.
		SampleSize:        k,
		IndicatorFraction: 0.018,
		FixedGamma:        true,
		Gamma0:            -1,
		MaxIterations:     40,
		Parallelism:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 330 nodes: ⌈0.018 · 329⌉ = 6 targets per local indicator.
	if adv.IndicatorSize() != 6 {
		t.Fatalf("|I| = %d on %d nodes, want 6", adv.IndicatorSize(), g.NumNodes())
	}
	for done := false; !done; {
		if done, err = adv.Step(); err != nil {
			t.Fatal(err)
		}
	}
	cfg := adv.Configuration()
	if cfg.NumModels() < 2 {
		t.Fatalf("sampled advisor ended with %d models; the run never accepted one", cfg.NumModels())
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("sampled configuration invalid: %v", err)
	}
	// The whole point: the advisor must not have materialized the full
	// cube, and none of the aggregates the reservoir estimates.
	if g.MaterializedNodes() >= g.NumNodes() {
		t.Fatalf("sampled advisor materialized all %d nodes", g.NumNodes())
	}
	if n := materializedAbove(g, cube.ExactUpTo(k)); n != 0 {
		t.Fatalf("sampled advisor materialized %d nodes covering more than %d base series", n, cube.ExactUpTo(k))
	}
	// Every node answers a forecast query, resolving schemes on demand.
	for _, id := range []int{0, g.TopID, g.NumNodes() - 1} {
		if _, err := cfg.Forecast(id, 2); err != nil {
			t.Fatalf("Forecast(%d): %v", id, err)
		}
	}
}

// TestReportKeepsSkeleton: summarizing a sampled run reads every node's
// depth from the skeleton, so Report materializes nothing the run did not.
func TestReportKeepsSkeleton(t *testing.T) {
	g, err := sampledTestCube(t).Graph()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Run(g, Options{Seed: 7, SampleSize: 8, FixedGamma: true, Gamma0: 0.5, MaxIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := g.MaterializedNodes()
	if before >= g.NumNodes() {
		t.Fatalf("the sampled run materialized all %d nodes; nothing left to keep", before)
	}
	r := cfg.Report()
	if after := g.MaterializedNodes(); after != before {
		t.Fatalf("Report materialized %d nodes (%d → %d of %d)", after-before, before, after, g.NumNodes())
	}
	// The depths are the materialized nodes' own.
	count := make(map[int]int)
	for id := 0; id < g.NumNodes(); id++ {
		count[g.Node(id).Depth]++
	}
	for _, d := range r.Depths {
		if count[d.Depth] != d.Nodes {
			t.Errorf("depth %d: report counts %d nodes, the graph %d", d.Depth, d.Nodes, count[d.Depth])
		}
		delete(count, d.Depth)
	}
	if len(count) != 0 {
		t.Errorf("depths missing from the report: %v", count)
	}
}

func TestSampledModeIsDeterministic(t *testing.T) {
	d := sampledTestCube(t)
	run := func() (uint64, int) {
		g, err := d.Graph()
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := Run(g, Options{
			Seed:       7,
			SampleSize: 16,
			// Pin the selection net: the γ feedback follows measured
			// phase times, which would make run-to-run comparison
			// timing-dependent.
			FixedGamma:    true,
			Gamma0:        0.5,
			MaxIterations: 12,
			Parallelism:   2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return configDigest(cfg), cfg.NumModels()
	}
	a, models := run()
	if models < 2 {
		t.Fatalf("run ended with %d models; nothing beyond the initial model to compare", models)
	}
	if b, _ := run(); a != b {
		t.Fatalf("configuration differs across runs: digest %#x vs %#x", a, b)
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
	// Drop a scheme to simulate a sampled run's uncovered node, then
	// resolve it back.
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
