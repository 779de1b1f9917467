package core_test

import (
	"bytes"
	"testing"

	"cubefc/internal/core"
	"cubefc/internal/datasets"
	"cubefc/internal/f2db"
)

// TestReportKeepsSkeleton: summarizing a configuration reads every node's
// depth from the skeleton, so Report materializes nothing on a graph that
// loaded its configuration from an advisor run on another graph, as a shard
// does.
func TestReportKeepsSkeleton(t *testing.T) {
	d := datasets.GenCube(3, datasets.CubeGenOptions{DimCards: [][]int{{24, 5}, {8, 2}}, Length: 36, Period: 4})
	ag, err := d.Graph()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := core.Run(ag, core.Options{Seed: 7, FixedGamma: true, Gamma0: 0.5, MaxIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := f2db.SaveConfiguration(&img, cfg); err != nil {
		t.Fatal(err)
	}
	g, err := d.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if cfg, err = f2db.LoadConfiguration(&img, g); err != nil {
		t.Fatal(err)
	}
	before := g.MaterializedNodes()
	if before >= g.NumNodes() {
		t.Fatalf("loading the configuration materialized all %d nodes; nothing left to keep", before)
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
