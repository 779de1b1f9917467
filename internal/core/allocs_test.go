package core

import (
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"cubefc/internal/cube"
	"cubefc/internal/datasets"
	"cubefc/internal/derivation"
)

func genCubeGraph(t *testing.T, nodes int) *cube.Graph {
	t.Helper()
	g, err := datasets.GenCube(1, datasets.CubeGenForNodes(nodes, 2)).Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestAdvisorSelfConsistent: what the advisor's allocation-free evaluation
// wrote into a configuration is what the public API computes for it — every
// node's weight and error equal derivation.NewScheme and its Scheme.SMAPE
// against the evaluation part of the node's series, over the source models'
// own forecasts, bit for bit.
func TestAdvisorSelfConsistent(t *testing.T) {
	multi := 0
	for name, run := range map[string]func() (*Configuration, error){
		"gencube":  func() (*Configuration, error) { return Run(genCubeGraph(t, 300), goldenOptions(1, 2)) },
		"seasonal": func() (*Configuration, error) { return Run(seasonalCube(t, 5), Options{Seed: 5, Parallelism: 2}) },
	} {
		cfg, err := run()
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < cfg.Graph.NumNodes(); id++ {
			sc, ok := cfg.Scheme(id)
			if !ok {
				t.Fatalf("%s: node %d has no scheme", name, id)
			}
			if len(sc.Sources) > 1 {
				multi++
			}
			fcs := make([][]float64, len(sc.Sources))
			for i, s := range sc.Sources {
				fcs[i] = make([]float64, cfg.TestLen())
				cfg.Models[s].Forecast(fcs[i])
			}
			want, err := derivation.NewScheme(cfg.Graph, id, sc.Sources, cfg.TrainLen)
			if err != nil {
				t.Fatalf("%s: node %d: %v", name, id, err)
			}
			if math.Float64bits(sc.K) != math.Float64bits(want.K) {
				t.Errorf("%s: node %d: K = %v, NewScheme says %v", name, id, sc.K, want.K)
			}
			e, err := want.SMAPE(cfg.Graph.NodeValues(id)[cfg.TrainLen:], fcs)
			if err != nil {
				t.Fatalf("%s: node %d: %v", name, id, err)
			}
			if got := cfg.Errors[id]; math.Float64bits(got) != math.Float64bits(ClampErr(e)) {
				t.Errorf("%s: node %d: error %v, Scheme.SMAPE says %v", name, id, got, ClampErr(e))
			}
		}
	}
	if multi == 0 {
		t.Error("no multi-source scheme survived in any run; they are not covered")
	}
}

// TestEvalSchemeAllocs is the allocation gate of scheme evaluation: the
// advisor evaluates some 125 000 candidate schemes per run on a 5 041-node
// cube and keeps a few hundred, so evaluating one allocates nothing.
func TestEvalSchemeAllocs(t *testing.T) {
	g := genCubeGraph(t, 300)
	adv, err := NewAdvisor(g, goldenOptions(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer adv.Close()
	for adv.cfg.NumModels() < 3 {
		if done, err := adv.Step(); err != nil || done {
			t.Fatalf("advisor stopped at %d models (err %v)", adv.cfg.NumModels(), err)
		}
	}
	ids := adv.cfg.ModelIDs()
	target := 0
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := adv.evalSingleSource(ids[0], target%g.NumNodes(), adv.modelFc[ids[0]]); !ok {
			t.Fatal("single-source evaluation failed")
		}
		if _, ok := adv.evalScheme(target%g.NumNodes(), ids[:3]); !ok {
			t.Fatal("multi-source evaluation failed")
		}
		target++
	}); n != 0 {
		t.Fatalf("evaluating a scheme allocates %v times, want 0", n)
	}
}

// advisorRunMallocs is the number of heap objects one whole advisor run
// allocates. The collector is off for the run, as in the daemon's count
// table: a collection that lands mid-run empties pools the run then refills,
// about 15 objects in one run of seventy.
func advisorRunMallocs(t *testing.T, g *cube.Graph, seed int64) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.ReadMemStats(&before)
	if _, err := Run(g, goldenOptions(seed, 2)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestAdvisorRunAllocs gates a whole run: on the 1 089-node cube it
// allocated 312 000 objects at d509a8e (a fresh adjacency slice per BFS
// visit, two or three slices per indicator cell, six objects per evaluated
// scheme), 2 317 at e20ec2c (a Sources slice per winning scheme, a map
// per local indicator) and 1 326 at 43d4758 (maps keyed by node ID, fresh
// candidate and probe lists per iteration, a goroutine per item, eight
// slices per Nelder-Mead workspace). What is left is what a run keeps —
// models, the locals' target and value arrays — plus the fits. The count
// must also not depend on the seed, which only moves the probes' targets:
// the benchmark compares runs across seeds, and a spread wider than its
// bound reads as "unresolved", not as a gain.
func TestAdvisorRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const budget = 531 // 508 once recordSeed reused the node's seed (531 before), plus 4.5 %
	// One P: with two, the scheduler's own allocations (goroutines, wait
	// queues) move a single run by up to 20 objects, 1.5 %, whatever the
	// seed; with one the count repeats to within a couple of objects.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := genCubeGraph(t, 1000)
	advisorRunMallocs(t, g, 1) // the first run over a fresh graph is set-up
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for seed := int64(1); seed <= 5; seed++ {
		n := advisorRunMallocs(t, g, seed)
		t.Logf("seed %d: %d objects", seed, n)
		if n > budget {
			t.Errorf("seed %d: a run allocates %d objects, budget %d", seed, n, budget)
		}
		lo, hi = min(lo, n), max(hi, n)
	}
	if float64(hi-lo) > 0.01*float64(lo) {
		t.Errorf("a run allocates %d to %d objects depending on the seed; want within 1 %%", lo, hi)
	}
}

// TestTrainingSumMemoTwin: the advisor's table of training sums answers every
// node of the 1 089-node cube with the bits the direct loop sums over the
// materialized series, read by four goroutines at once (CI runs it under
// -race too). After a run, every single-source scheme reading model m shares
// one Sources array.
func TestTrainingSumMemoTwin(t *testing.T) {
	g := genCubeGraph(t, 1000)
	opts := goldenOptions(1, 2)
	adv, err := NewAdvisor(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	n := adv.cfg.TrainLen
	direct := func(id int) float64 {
		var acc float64
		for _, v := range g.NodeValues(id)[:n] {
			acc += v
		}
		return acc
	}
	fresh := derivation.NewTrainingSums(g, n)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < g.NumNodes(); i++ {
				id := (i + w*g.NumNodes()/4) % g.NumNodes() // four starting points
				for _, ps := range []*derivation.TrainingSums{fresh, adv.hist} {
					if got, want := ps.PrefixSum(id, n), direct(id); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("node %d: memoized sum %v, direct loop %v", id, got, want)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	cfg, err := Run(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	shared, schemes := map[int]*int{}, 0
	for _, sc := range cfg.Schemes {
		if len(sc.Sources) != 1 {
			continue
		}
		schemes++
		m := sc.Sources[0]
		if p, ok := shared[m]; !ok {
			shared[m] = &sc.Sources[0]
		} else if p != &sc.Sources[0] {
			t.Fatalf("two schemes reading model %d hold two Sources arrays", m)
		}
	}
	if schemes <= len(shared) {
		t.Fatalf("%d single-source schemes over %d models; no sharing to check", schemes, len(shared))
	}
}
