package cube_test

import (
	"math"
	"math/rand"
	"testing"

	"cubefc/internal/cube"
	"cubefc/internal/datasets"
)

// TestGraphTwinOnDatasets holds the one builder against the eager oracle on
// the evaluation data sets, a 10 201-node synthetic cube, a five-dimensional
// one and, unless -short, one whose last dimension has 2^16+1 members
// (196 614 nodes; a dedup packing 16 bits per cell code could not tell two
// of them apart): node IDs, keys, parent and child edges, covered bases and
// series agree bit for bit when the nodes are materialized in random order,
// half of them before and half of them after ten Advance steps.
func TestGraphTwinOnDatasets(t *testing.T) {
	sets := []*datasets.Dataset{
		datasets.Tourism(1),
		datasets.Sales(1),
		datasets.Energy(1, datasets.EnergyOptions{Customers: 30, Days: 40}),
		datasets.GenCube(1, datasets.CubeGenForNodes(10_000, 2)),
		datasets.GenCube(1, datasets.CubeGenOptions{DimCards: [][]int{{4, 2}, {3}, {2}, {3}, {2}}, Length: 16, Period: 4}),
	}
	if !testing.Short() {
		sets = append(sets, datasets.GenCube(1, datasets.CubeGenOptions{DimCards: [][]int{{2}, {1<<16 + 1}}, Length: 8, Period: 4}))
	}
	for _, d := range sets {
		t.Run(d.Name, func(t *testing.T) {
			o, err := cube.NewEagerOracle(d.Dims, d.Base)
			if err != nil {
				t.Fatal(err)
			}
			g, err := d.Graph()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := g.MaterializedNodes(), len(o.BaseIDs); got != want {
				t.Fatalf("%d nodes materialized at construction, want the %d base nodes", got, want)
			}
			rng := rand.New(rand.NewSource(7))
			order := rng.Perm(g.NumNodes())
			for _, id := range order[:len(order)/2] {
				g.Node(id)
			}
			for step := 0; step < 10; step++ {
				batch := make(map[int]float64, len(o.BaseIDs))
				for _, bid := range o.BaseIDs {
					batch[bid] = math.Round(rng.Float64()*1000) / 7
				}
				if err := o.Advance(batch); err != nil {
					t.Fatal(err)
				}
				if err := cube.AdvanceMap(g, batch); err != nil {
					t.Fatal(err)
				}
			}
			for _, id := range order[len(order)/2:] {
				g.Node(id)
			}
			cube.RequireBitIdentical(t, o, g)

			dup := append(d.Base[:len(d.Base):len(d.Base)], d.Base[len(d.Base)/2])
			if _, err := cube.NewGraph(d.Dims, dup); err == nil {
				t.Fatal("a repeated base coordinate must be rejected")
			}
		})
	}
}
