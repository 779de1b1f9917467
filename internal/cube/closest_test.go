package cube_test

import (
	"math/rand"
	"sync"
	"testing"

	"cubefc/internal/cube"
	"cubefc/internal/datasets"
)

// referenceClosest is ClosestNodes as it was before it walked the skeleton in
// place: a map, a queue and a fresh adjacency slice per visit from Neighbors.
func referenceClosest(g interface{ Neighbors(int) []int }, id, k int) []int {
	if k <= 0 {
		return nil
	}
	visited := make(map[int]bool, k*2)
	visited[id] = true
	queue := []int{id}
	var out []int
	for len(queue) > 0 && len(out) < k {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range g.Neighbors(cur) {
			if visited[nb] {
				continue
			}
			visited[nb] = true
			out = append(out, nb)
			if len(out) >= k {
				break
			}
			queue = append(queue, nb)
		}
	}
	return out
}

func closestCube(t *testing.T) *datasets.Dataset {
	t.Helper()
	return datasets.GenCube(1, datasets.CubeGenForNodes(300, 2))
}

// halfMaterialized builds the graph and materializes a random half of its
// nodes, so a BFS crosses nodes that exist and nodes that do not.
func halfMaterialized(t *testing.T, d *datasets.Dataset) *cube.Graph {
	t.Helper()
	g, err := d.Graph()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for id := 0; id < g.NumNodes(); id++ {
		if rng.Intn(2) == 0 {
			g.Node(id)
		}
	}
	if m := g.MaterializedNodes(); m == g.NumNodes() {
		t.Fatalf("all %d nodes materialized; nothing is left to materialize under the BFS", m)
	}
	return g
}

func requireClosest(t *testing.T, g *cube.Graph, s *cube.BFSScratch, want [][]int, ks []int) {
	for id := 0; id < g.NumNodes(); id++ {
		for i, k := range ks {
			got, want := g.ClosestNodes(s, id, k), want[id*len(ks)+i]
			if len(got) != len(want) {
				t.Errorf("ClosestNodes(%d, %d) returned %d nodes, reference %d", id, k, len(got), len(want))
				return
			}
			for j := range got {
				if got[j] != want[j] {
					t.Errorf("ClosestNodes(%d, %d)[%d] = %d, reference %d", id, k, j, got[j], want[j])
					return
				}
			}
		}
	}
}

// TestClosestNodesTwin: for every node and k ∈ {1, 7, n−1} the in-place BFS
// returns the nodes, in the order, of the reference BFS over the eager
// oracle's adjacency — on a fully materialized graph, on a half-materialized
// one, and on that one shared by eight goroutines (each with a scratch of
// its own) while the rest of it materializes underneath them.
func TestClosestNodesTwin(t *testing.T) {
	d := closestCube(t)
	eager, err := cube.NewEagerOracle(d.Dims, d.Base)
	if err != nil {
		t.Fatal(err)
	}
	ks := []int{1, 7, len(eager.Nodes) - 1}
	want := make([][]int, 0, len(eager.Nodes)*len(ks))
	for id := range eager.Nodes {
		for _, k := range ks {
			want = append(want, referenceClosest(eager, id, k))
		}
	}
	full, err := d.Graph()
	if err != nil {
		t.Fatal(err)
	}
	full.MaterializeAll()
	var s cube.BFSScratch
	requireClosest(t, full, &s, want, ks)

	lazy := halfMaterialized(t, d)
	for id := 0; id < lazy.NumNodes(); id++ {
		for i, k := range ks {
			if ref := referenceClosest(lazy, id, k); len(ref) != len(want[id*len(ks)+i]) {
				t.Fatalf("reference BFS disagrees between the oracle and the graph at node %d, k %d", id, k)
			}
		}
	}
	requireClosest(t, lazy, &s, want, ks)

	shared := halfMaterialized(t, d)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w == 0 {
				for id := 0; id < shared.NumNodes(); id++ {
					shared.Node(id)
				}
				return
			}
			requireClosest(t, shared, new(cube.BFSScratch), want, ks)
		}(w)
	}
	wg.Wait()
}

// TestClosestNodesAllocs: on a scratch that has seen the graph once, the
// BFS behind every local indicator and every probe plan allocates nothing.
func TestClosestNodesAllocs(t *testing.T) {
	g, err := closestCube(t).Graph()
	if err != nil {
		t.Fatal(err)
	}
	var s cube.BFSScratch
	g.ClosestNodes(&s, g.TopID, g.NumNodes()-1)
	id := 0
	if n := testing.AllocsPerRun(100, func() {
		g.ClosestNodes(&s, id%g.NumNodes(), g.NumNodes()-1)
		id++
	}); n != 0 {
		t.Fatalf("ClosestNodes on a warm scratch allocates %v times, want 0", n)
	}
}
