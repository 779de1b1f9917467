package f2db_test

// Race coverage for on-demand node materialization inside the engine: readers
// force on-demand aggregate materialization through forecast queries while
// concurrent writers advance the cube through the write path. Part
// of the CI race-stress suite:
//
//	go test -race -run LazyMaterialization ./internal/f2db/

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/datasets"
	"cubefc/internal/f2db"
	"cubefc/internal/workload"
)

// TestLazyMaterializationRace opens an engine over a skeleton graph that
// loaded its configuration from an advisor run on another graph, as a shard
// does, so most aggregates are unmaterialized, then storms it: per round, 8 writers apply disjoint parts of one insert batch while 4
// readers issue forecasts on random nodes, materializing them mid-advance.
// Afterwards every node's forecast must be bit-identical to a
// engine over a graph that called MaterializeAll up front
// and applied the same batches sequentially — materialization timing must
// never leak into results.
func TestLazyMaterializationRace(t *testing.T) {
	const (
		rounds  = 4
		writers = 8
		readers = 4
	)
	d := datasets.GenCube(7, datasets.CubeGenOptions{
		DimCards: [][]int{{24, 5}, {8, 2}},
		Length:   24,
		Period:   4,
	})
	ag, err := d.Graph()
	if err != nil {
		t.Fatal(err)
	}
	// Pinned γ: deterministic.
	cfg, err := core.Run(ag, core.Options{Seed: 7, FixedGamma: true, Gamma0: 0.5, MaxIterations: 4, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := f2db.SaveConfiguration(&img, cfg); err != nil {
		t.Fatal(err)
	}
	// lg stays a skeleton, so the storm below actually races materialization
	// (asserted before the storm starts); eg is materialized up front.
	load := func(materialize bool) (*cube.Graph, *core.Configuration) {
		g, err := d.Graph()
		if err != nil {
			t.Fatal(err)
		}
		if materialize {
			g.MaterializeAll()
		}
		cfg, err := f2db.LoadConfiguration(bytes.NewReader(img.Bytes()), g)
		if err != nil {
			t.Fatal(err)
		}
		return g, cfg
	}
	lg, lcfg := load(false)
	eg, ecfg := load(true)
	ldb, err := f2db.Open(lg, lcfg, f2db.Options{Strategy: f2db.Never{}})
	if err != nil {
		t.Fatal(err)
	}
	edb, err := f2db.Open(eg, ecfg, f2db.Options{Strategy: f2db.Never{}})
	if err != nil {
		t.Fatal(err)
	}
	if lg.MaterializedNodes() >= lg.NumNodes() {
		t.Fatalf("cube fully materialized before the storm (%d nodes); nothing left to race", lg.NumNodes())
	}

	// Deterministic batches, independent of engine state.
	rng := rand.New(rand.NewSource(99))
	batches := make([]map[int]float64, rounds)
	for r := range batches {
		b := make(map[int]float64, len(lg.BaseIDs))
		for _, id := range lg.BaseIDs {
			b[id] = 10 + 90*rng.Float64()
		}
		batches[r] = b
	}

	for r := 0; r < rounds; r++ {
		parts := workload.SplitBatch(batches[r], writers)
		var wg sync.WaitGroup
		werrs := make([]error, len(parts))
		for i, part := range parts {
			wg.Add(1)
			go func(i int, part map[int]float64) {
				defer wg.Done()
				werrs[i] = ldb.InsertBatch(part)
			}(i, part)
		}
		rerrs := make([]error, readers)
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				qrng := rand.New(rand.NewSource(int64(r*readers + i)))
				for q := 0; q < 32; q++ {
					if _, err := ldb.ForecastNode(qrng.Intn(lg.NumNodes()), 2); err != nil {
						rerrs[i] = err
						return
					}
				}
			}(i)
		}
		wg.Wait()
		for _, err := range werrs {
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, err := range rerrs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := edb.InsertBatch(batches[r]); err != nil {
			t.Fatal(err)
		}
	}

	for id := 0; id < lg.NumNodes(); id++ {
		lfc, err := ldb.ForecastNode(id, 3)
		if err != nil {
			t.Fatalf("lazy ForecastNode(%d): %v", id, err)
		}
		efc, err := edb.ForecastNode(id, 3)
		if err != nil {
			t.Fatalf("eager ForecastNode(%d): %v", id, err)
		}
		for h := range lfc {
			if math.Float64bits(lfc[h]) != math.Float64bits(efc[h]) {
				t.Fatalf("node %d horizon %d: lazy %v != eager %v", id, h, lfc[h], efc[h])
			}
		}
	}
}

// TestRoutingHoldsSkeleton: the routing tier (f2dbd -coordinator) plans
// SELECTs and resolves INSERT rows on the graph's skeleton alone. 2 000
// rendered statements — forecasts of random nodes, every tenth a multi-row
// INSERT — materialize no aggregate: the coordinator's copy of the cube
// stays at its base nodes however much traffic it routes.
func TestRoutingHoldsSkeleton(t *testing.T) {
	g, err := datasets.GenCube(1, datasets.CubeGenForNodes(1_000, 2)).Graph()
	if err != nil {
		t.Fatal(err)
	}
	p := f2db.NewPlanner(g, 0)
	gen := workload.New(g, 3)
	var inserts []map[int]float64
	for i := 0; i < 2_000; i++ {
		if i%10 != 0 {
			if _, err := p.RouteQuery(gen.QuerySQL(gen.RandomNode(), 1+i%3)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if len(inserts) == 0 {
			inserts = workload.SplitBatch(gen.NextBatch(), 8)
		}
		rows, err := p.RouteExecNodes(gen.InsertSQL(inserts[0]))
		if err != nil || rows != len(inserts[0]) {
			t.Fatalf("RouteExecNodes: %d rows, %v; want %d rows", rows, err, len(inserts[0]))
		}
		inserts = inserts[1:]
	}
	if got, want := g.MaterializedNodes(), len(g.BaseIDs); got != want {
		t.Fatalf("routing materialized %d of %d nodes, want only the %d base nodes", got, g.NumNodes(), want)
	}
}
