package cube_test

import (
	"runtime"
	"slices"
	"testing"

	"cubefc/internal/datasets"
)

// TestGraphBudgets is the graph's row of the count table: on the 10 201-node
// cube the benchmark serves, the heap objects one NewGraph allocates, the
// live heap bytes per node the graph holds after a collection, beyond the
// base values it aliases (the data set's own), and those its coordinate index
// adds at the first lookup; and, over advances past two grow points, the
// largest capacity-to-length ratio of a resident series, against the 25 %
// slack plus 8 values growCap allows. All are the same on every run of one
// toolchain. A change that moves a row re-records its budget here and says
// why.
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
	graph := live()
	perNode := float64(graph-before) / float64(g.NumNodes())
	if _, ok := g.LookupID(g.AppendKey(nil, g.TopID)); !ok {
		t.Fatal("the top node's key does not resolve")
	}
	indexPerNode := float64(live()-graph) / float64(g.NumNodes())
	runtime.KeepAlive(d) // its base series are not the graph's

	resident := append(slices.Clone(g.BaseIDs), g.TopID, g.TopID/2, g.NumNodes()-2)
	column := make([]float64, len(g.BaseIDs))
	worst, budget := 0.0, 0.0
	for range 20 { // lengths 48 → 68, past the grow points at 48 and 60
		if err := g.Advance(column); err != nil {
			t.Fatal(err)
		}
		for _, id := range resident {
			v := g.Node(id).Series.Values
			if r := float64(cap(v)) / float64(len(v)); r > worst {
				worst, budget = r, 1.25+8/float64(len(v))
			}
		}
	}

	for _, row := range []struct {
		name        string
		got, budget float64
	}{
		{"newgraph_allocs", allocs, 350},
		{"graph_live_b_per_node", perNode, 115},
		{"index_live_b_per_node", indexPerNode, 8},
		{"series_cap_over_len", worst, budget},
	} {
		t.Logf("%-22s %8.2f  budget %8.2f", row.name, row.got, row.budget)
		if row.got > row.budget {
			t.Errorf("%s = %.2f, over its budget %.2f", row.name, row.got, row.budget)
		}
	}
}
