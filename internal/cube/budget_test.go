package cube_test

import (
	"runtime"
	"testing"

	"cubefc/internal/datasets"
)

// TestGraphBudgets is the graph's row of the count table: on the 10 201-node
// cube the benchmark serves, the heap objects one NewGraph allocates and the
// live heap bytes per node the graph holds after a collection, beyond the
// base values it aliases (the data set's own). Both are the same on every
// run of one toolchain. A change that moves a row re-records its budget here
// and says why.
func TestGraphBudgets(t *testing.T) {
	d := datasets.GenCube(1, datasets.CubeGenForNodes(10_000, 2))
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := d.Graph(); err != nil {
			t.Fatal(err)
		}
	})
	var ms runtime.MemStats
	live := func() uint64 {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	g, err := d.Graph()
	if err != nil {
		t.Fatal(err)
	}
	perNode := float64(live()-before) / float64(g.NumNodes())
	runtime.KeepAlive(d) // its base series are not the graph's

	for _, row := range []struct {
		name        string
		got, budget float64
	}{
		{"newgraph_allocs", allocs, 350},
		{"graph_live_b_per_node", perNode, 115},
	} {
		t.Logf("%-22s %8.1f  budget %6.0f", row.name, row.got, row.budget)
		if row.got > row.budget {
			t.Errorf("%s = %.1f, over its budget %.0f", row.name, row.got, row.budget)
		}
	}
}
