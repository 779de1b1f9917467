package cube

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"cubefc/internal/timeseries"
)

func fig1Oracle(t *testing.T) *EagerOracle {
	t.Helper()
	o, err := NewEagerOracle(fig1Dims(t), fig1Base(8))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestLazyGraphBitIdenticalToEager(t *testing.T) {
	eager := fig1Oracle(t)
	lazy := fig1Graph(t)
	// Materialize in a scrambled order: bit-identity must not depend on
	// access order.
	order := rand.New(rand.NewSource(7)).Perm(lazy.NumNodes())
	for _, id := range order {
		lazy.Node(id)
	}
	RequireBitIdentical(t, eager, lazy)
}

func TestLazyAdvanceBitIdenticalToEager(t *testing.T) {
	eager := fig1Oracle(t)
	lazy := fig1Graph(t)
	// Materialize only part of the graph, advance, then touch the rest:
	// late-materialized nodes must sum the already-extended base series.
	lazy.Node(lazy.TopID)
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 3; step++ {
		batch := make(map[int]float64, len(eager.BaseIDs))
		for _, bid := range eager.BaseIDs {
			batch[bid] = math.Round(rng.Float64()*1000) / 10
		}
		if err := eager.Advance(batch); err != nil {
			t.Fatal(err)
		}
		if err := AdvanceMap(lazy, batch); err != nil {
			t.Fatal(err)
		}
	}
	RequireBitIdentical(t, eager, lazy)
}

func TestLazyMaterializationIsOnDemand(t *testing.T) {
	g := fig1Graph(t)
	if got, want := g.MaterializedNodes(), len(g.BaseIDs); got != want {
		t.Fatalf("MaterializedNodes = %d at construction, want %d (bases only)", got, want)
	}
	top := g.Node(g.TopID)
	if g.MaterializedNodes() != len(g.BaseIDs)+1 {
		t.Fatalf("probing the top node should materialize exactly one aggregate, got %d",
			g.MaterializedNodes())
	}
	// Structural and history reads must not materialize.
	g.Histories()
	for id := 0; id < g.NumNodes(); id++ {
		g.History(id, nil)
		g.Latest(id)
		g.KeyOf(id)
		g.CoordOf(id)
		g.IsBase(id)
		g.CoveredBaseCount(id)
		g.CoveredBases(id)
	}
	if g.MaterializedNodes() != len(g.BaseIDs)+1 {
		t.Fatal("structural and history accessors must not materialize nodes")
	}
	if len(g.CoveredBases(top.ID)) != len(g.BaseIDs) {
		t.Fatal("top must cover all bases")
	}
	g.MaterializeAll()
	if g.MaterializedNodes() != g.NumNodes() {
		t.Fatal("MaterializeAll must materialize everything")
	}
}

func TestLazyCoveredBasesMatchEager(t *testing.T) {
	eager := fig1Oracle(t).BaseIncidence()
	lazy := fig1Graph(t)
	for id, want := range eager {
		if !slices.Equal(want, lazy.CoveredBases(id)) {
			t.Fatalf("node %d incidence: oracle %v, CoveredBases %v", id, want, lazy.CoveredBases(id))
		}
		if lazy.CoveredBaseCount(id) != len(want) {
			t.Fatalf("node %d covered-base count %d, oracle %d", id, lazy.CoveredBaseCount(id), len(want))
		}
	}
}

func TestLazyRejectsDuplicateBaseCoordinates(t *testing.T) {
	dims := fig1Dims(t)
	base := fig1Base(8)
	base = append(base, BaseSeries{
		Members: base[0].Members,
		Series:  timeseries.New(make([]float64, 8), 4),
	})
	if _, err := NewGraph(dims, base); err == nil {
		t.Fatal("duplicate base coordinate must be rejected")
	}
}

// TestLazyConcurrentMaterializeAndAdvance drives materialization from many
// goroutines racing an Advance stream — the CI -race target for the lazy
// write path.
func TestLazyConcurrentMaterializeAndAdvance(t *testing.T) {
	g := fig1Graph(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				id := rng.Intn(g.NumNodes())
				n := g.Node(id)
				if n == nil || n.ID != id {
					t.Errorf("bad node for id %d", id)
					return
				}
				_ = g.Neighbors(id)
				_ = g.CoveredBaseCount(id)
				select {
				case <-stop:
					return
				default:
				}
			}
		}(int64(w))
	}
	for step := 0; step < 20; step++ {
		batch := make(map[int]float64, len(g.BaseIDs))
		for _, bid := range g.BaseIDs {
			batch[bid] = float64(step + bid)
		}
		if err := AdvanceMap(g, batch); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	// Every node must end at the advanced length.
	g.MaterializeAll()
	for id := 0; id < g.NumNodes(); id++ {
		if got := len(g.Node(id).Series.Values); got != g.Length {
			t.Fatalf("node %d has %d observations, want %d", id, got, g.Length)
		}
	}
}
