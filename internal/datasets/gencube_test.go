package datasets

import (
	"math"
	"testing"
)

func TestGenCubeShape(t *testing.T) {
	opts := CubeGenOptions{DimCards: [][]int{{12, 3}, {6, 2}}, Length: 24, Period: 4}
	d := GenCube(1, opts)
	if len(d.Base) != 72 {
		t.Fatalf("base series = %d, want 72", len(d.Base))
	}
	g, err := d.Graph()
	if err != nil {
		t.Fatal(err)
	}
	// (12+3+1) × (6+2+1) = 144 nodes.
	if g.NumNodes() != opts.NumNodes() || g.NumNodes() != 144 {
		t.Fatalf("NumNodes = %d, want %d (=144)", g.NumNodes(), opts.NumNodes())
	}
	if len(g.BaseIDs) != opts.NumBase() {
		t.Fatalf("base nodes = %d, want %d", len(g.BaseIDs), opts.NumBase())
	}
	if g.Period != 4 || g.Length != 24 {
		t.Fatalf("period/length = %d/%d", g.Period, g.Length)
	}
}

func TestGenCubeDeterministicPerSeed(t *testing.T) {
	opts := CubeGenOptions{DimCards: [][]int{{8, 2}}, Length: 16}
	a, b := GenCube(5, opts), GenCube(5, opts)
	for i := range a.Base {
		for t2, v := range a.Base[i].Series.Values {
			if math.Float64bits(v) != math.Float64bits(b.Base[i].Series.Values[t2]) {
				t.Fatalf("series %d diverges at t=%d", i, t2)
			}
		}
	}
	c := GenCube(6, opts)
	same := true
	for i := range a.Base {
		for t2, v := range a.Base[i].Series.Values {
			if v != c.Base[i].Series.Values[t2] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds must produce different cubes")
	}
}

func TestCubeGenForNodesHitsTarget(t *testing.T) {
	for _, target := range []int{1_000, 10_000, 100_000} {
		opts := CubeGenForNodes(target, 2)
		got := opts.NumNodes()
		ratio := float64(got) / float64(target)
		if ratio < 0.5 || ratio > 2 {
			t.Fatalf("CubeGenForNodes(%d, 2) → %d nodes (ratio %.2f)", target, got, ratio)
		}
	}
}
