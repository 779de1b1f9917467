package experiments

import (
	"fmt"
	"runtime"
	"time"

	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/datasets"
	"cubefc/internal/f2db"
	"cubefc/internal/hierarchical"
	"cubefc/internal/workload"
)

// Fig9aSizes returns the GenX sweep of Figure 9a. The paper sweeps
// {1k, 10k, 20k, 30k, 40k, 100k}; the quick scale keeps runs in seconds.
func Fig9aSizes(scale Scale) []int {
	if scale == Paper {
		return []int{1_000, 10_000, 20_000, 30_000, 40_000, 100_000}
	}
	return []int{200, 500, 1_000, 2_000}
}

// Fig9a reproduces the scalability analysis of Figure 9a: total
// configuration-creation time per approach over growing numbers of base
// series (GenX, advisor with α pinned to 0.5 as in the paper). Combine is
// run only on the smallest size (its reconciliation regression is the
// paper's ">1 day" case), Greedy only while tractable.
func Fig9a(scale Scale) (*Table, error) {
	sizes := Fig9aSizes(scale)
	t := &Table{
		Title:  "Fig 9a: configuration-creation runtime vs #base series (GenX, alpha=0.5)",
		Header: append([]string{"approach"}, sizeHeader(sizes)...),
	}
	graphs := make([]*genGraph, len(sizes))
	for i, x := range sizes {
		ds := datasets.GenX(Seed, x)
		g, err := ds.Graph()
		if err != nil {
			return nil, err
		}
		graphs[i] = &genGraph{x: x, g: g}
	}
	combineMax := sizes[0]
	greedyMax := sizes[len(sizes)-1]
	if scale == Paper {
		greedyMax = 40_000
	}
	for _, ap := range []string{"Combine", "Greedy", "Direct", "BottomUp", "Advisor", "TopDown"} {
		row := []string{ap}
		for _, gg := range graphs {
			if (ap == "Combine" && gg.x > combineMax) || (ap == "Greedy" && gg.x > greedyMax) {
				row = append(row, "-")
				continue
			}
			_, dur, err := RunApproach(ap, gg.g, hierarchical.Options{},
				core.Options{Seed: Seed, AlphaMax: 0.5})
			if err != nil {
				return nil, fmt.Errorf("fig9a %s@%d: %w", ap, gg.x, err)
			}
			row = append(row, dur.Round(time.Millisecond).String())
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"Combine restricted to the smallest size (regression over all base forecasts; the paper's >1 day case)")
	return t, nil
}

// ScaleTable times the pipeline on GenCube cubes of 10⁴ and 10⁵ nodes
// (ROADMAP item 25): the hyper graph build, a second advisor run (seed 1,
// two workers; the first fills the graph's lazy indexes) and f2db.Open, the
// live heap per node with the graph and with the engine (with the coordinate
// index a shard's first lookup builds), and the heap objects of the advisor
// run. γ follows the clock, so the advisor columns move a little between
// runs; pinned, it finds no candidate at 10⁵ nodes.
func ScaleTable() (*Table, error) {
	t := &Table{
		Title:  "Scale: pipeline on GenCube cubes (advisor: seed 1, parallelism 2)",
		Header: []string{"nodes", "bases", "NewGraph", "advisor", "Open", "graph B/node", "engine B/node", "advisor objects"},
	}
	var ms runtime.MemStats
	live := func() uint64 { runtime.GC(); runtime.ReadMemStats(&ms); return ms.HeapAlloc }
	since := func(start time.Time) string { return time.Since(start).Round(time.Millisecond).String() }
	opts := core.Options{Parallelism: 2, Seed: 1}
	for _, n := range []int{10_000, 100_000} {
		base, ds := live(), datasets.GenCube(Seed, datasets.CubeGenForNodes(n, 2))
		start := time.Now()
		g, err := ds.Graph()
		build := since(start)
		if err == nil {
			_, err = core.Run(g, opts)
		}
		graph, mallocs := live(), ms.Mallocs
		start = time.Now()
		var cfg *core.Configuration
		if err == nil {
			cfg, err = core.Run(g, opts)
		}
		advise := since(start)
		runtime.ReadMemStats(&ms)
		mallocs = ms.Mallocs - mallocs
		g.LookupID(g.AppendKey(nil, g.TopID)) // builds the index, as loading a configuration does
		start = time.Now()
		var db *f2db.DB
		if err == nil {
			db, err = f2db.Open(g, cfg, f2db.Options{})
		}
		if err != nil {
			return nil, err
		}
		open, engine := since(start), live()
		runtime.KeepAlive(db)
		perNode := func(b uint64) string { return fmt.Sprint((b - base) / uint64(g.NumNodes())) }
		t.AddRow(fmt.Sprint(g.NumNodes()), fmt.Sprint(len(g.BaseIDs)), build, advise, open, perNode(graph), perNode(engine), fmt.Sprint(mallocs))
	}
	return t, nil
}

type genGraph struct {
	x int
	g *cube.Graph
}

func sizeHeader(sizes []int) []string {
	h := make([]string, len(sizes))
	for i, s := range sizes {
		h[i] = fmt.Sprintf("x=%d", s)
	}
	return h
}

// Fig9b reproduces the forecast-query runtime analysis of Figure 9b: the
// average latency of a forecast query in F²DB as a function of the
// query/insert ratio (1..10) for advisor configurations with α = 0.5 and
// α = 1.0 on the synthetic data set. More models (α = 1.0) mean more
// maintenance work per insert, so the average query cost is higher; with
// more queries per insert the (amortized) maintenance share shrinks.
func Fig9b(scale Scale) (*Table, error) {
	x := 1_000
	if scale == Paper {
		x = 10_000
	}
	ds := datasets.GenX(Seed, x)
	g, err := ds.Graph()
	if err != nil {
		return nil, err
	}
	ratios := []int{1, 2, 4, 6, 8, 10}
	t := &Table{
		Title:  fmt.Sprintf("Fig 9b: avg forecast-query latency vs query/insert ratio (gen%d)", x),
		Header: append([]string{"config"}, ratioHeader(ratios)...),
	}
	for _, alpha := range []float64{0.5, 1.0} {
		cfgTmpl, err := core.Run(g, core.Options{Seed: Seed, AlphaMax: alpha})
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("alpha=%.1f (%d models)", alpha, cfgTmpl.NumModels())}
		for _, ratio := range ratios {
			// Fresh graph and configuration per run so maintenance
			// effects do not accumulate across ratios.
			dsr := datasets.GenX(Seed, x)
			gr, err := dsr.Graph()
			if err != nil {
				return nil, err
			}
			cfg, err := core.Run(gr, core.Options{Seed: Seed, AlphaMax: alpha})
			if err != nil {
				return nil, err
			}
			db, err := f2db.Open(gr, cfg, f2db.Options{Strategy: f2db.TimeBased{Every: 2}})
			if err != nil {
				return nil, err
			}
			gen := workload.New(gr, Seed)
			// Warm up caches and the JIT-less runtime paths before
			// measuring, then run the paper's 10 time points.
			if _, err := workload.Run(db, gen, workload.Options{TimePoints: 2, QueriesPerInsert: ratio}); err != nil {
				return nil, err
			}
			res, err := workload.Run(db, gen, workload.Options{
				TimePoints:       10,
				QueriesPerInsert: ratio,
			})
			if err != nil {
				return nil, fmt.Errorf("fig9b alpha=%.1f ratio=%d: %w", alpha, ratio, err)
			}
			// The paper plots per-query cost including the amortized
			// maintenance share of the interleaved inserts.
			row = append(row, res.EngineTimePerQuery().Round(10*time.Nanosecond).String())
		}
		t.AddRow(row...)
	}
	return t, nil
}

func ratioHeader(ratios []int) []string {
	h := make([]string, len(ratios))
	for i, r := range ratios {
		h[i] = fmt.Sprintf("q/i=%d", r)
	}
	return h
}
