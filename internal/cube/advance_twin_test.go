package cube_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"cubefc/internal/cube"
	"cubefc/internal/datasets"
)

// TestAdvanceColumnTwin holds Advance over a dense column against the
// map-keyed Advance it replaced (AdvanceMapOracle): two graphs over one data
// set, materializing and advancing in one random interleaving, end with every
// node's series identical bit for bit — also while other goroutines
// materialize nodes of the column graph in an order of their own, which under
// -race is the check that Advance and Node(id) still exclude each other.
// Before the first Advance and after every one, the column graph's Latest and
// HistorySum of every node — resident or not — equal the last value and the
// Series.Sum() of a third, fully materialized twin, bit for bit.
func TestAdvanceColumnTwin(t *testing.T) {
	for _, d := range []*datasets.Dataset{
		datasets.Tourism(1),
		datasets.Sales(1),
		datasets.GenCube(1, datasets.CubeGenForNodes(1000, 2)),
		datasets.GenCube(1, datasets.CubeGenOptions{DimCards: [][]int{{4, 2}, {3}, {2}, {3}, {2}}, Length: 16, Period: 4}),
	} {
		for _, concurrent := range []bool{false, true} {
			name := d.Name
			if concurrent {
				name += "/concurrent"
			}
			t.Run(name, func(t *testing.T) {
				g, err := d.Graph()
				if err != nil {
					t.Fatal(err)
				}
				o, err := d.Graph()
				if err != nil {
					t.Fatal(err)
				}
				m, err := d.Graph()
				if err != nil {
					t.Fatal(err)
				}
				m.MaterializeAll()
				checkReads := func(when string) {
					t.Helper()
					for id := 0; id < g.NumNodes(); id++ {
						s := m.Node(id).Series
						if got, want := g.Latest(id), s.Values[len(s.Values)-1]; math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s: node %d Latest %x, materialized twin %x", when, id, math.Float64bits(got), math.Float64bits(want))
						}
						if got, want := g.HistorySum(id), s.Sum(); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s: node %d HistorySum %x, materialized twin %x", when, id, math.Float64bits(got), math.Float64bits(want))
						}
					}
				}
				var wg sync.WaitGroup
				if concurrent {
					for w := 0; w < 4; w++ {
						wg.Add(1)
						go func(seed int64) {
							defer wg.Done()
							rng := rand.New(rand.NewSource(seed))
							for i := 0; i < 300; i++ {
								id := rng.Intn(g.NumNodes())
								if n := g.Node(id); n.ID != id {
									t.Errorf("Node(%d) returned node %d", id, n.ID)
									return
								}
							}
						}(int64(w))
					}
				}
				rng := rand.New(rand.NewSource(3))
				// One NaN payload per time point: math.NaN() and the NaN that
				// +Inf + -Inf produces differ in their bits, and which of two
				// NaNs an addition returns is the compiler's operand order.
				specials := [][]float64{
					{0, math.Copysign(0, -1), 5e-324, -1e300, 1e300, math.NaN()},
					{0, math.Copysign(0, -1), 5e-324, -1e300, 1e300, math.Inf(1), math.Inf(-1)},
				}
				column := make([]float64, len(g.BaseIDs))
				checkReads("before the first advance")
				for step, advances := 0, 0; step < 40; step++ {
					if rng.Intn(3) == 0 {
						for i := 0; i < 1+g.NumNodes()/20; i++ {
							id := rng.Intn(g.NumNodes())
							g.Node(id)
							o.Node(id)
						}
						continue
					}
					values := make(map[int]float64, len(column))
					for i, id := range g.BaseIDs {
						column[i] = math.Round(rng.NormFloat64()*1e4) / 7
						if advances%4 == 3 && rng.Intn(4) == 0 {
							set := specials[advances/4%2]
							column[i] = set[rng.Intn(len(set))]
						}
						values[id] = column[i]
					}
					if err := g.Advance(column); err != nil {
						t.Fatal(err)
					}
					if err := cube.AdvanceMapOracle(o, values); err != nil {
						t.Fatal(err)
					}
					if err := cube.AdvanceMapOracle(m, values); err != nil {
						t.Fatal(err)
					}
					advances++
					checkReads(fmt.Sprintf("advance %d", advances))
				}
				wg.Wait()
				if g.Length != o.Length {
					t.Fatalf("column graph at length %d, oracle at %d", g.Length, o.Length)
				}
				for id := 0; id < g.NumNodes(); id++ {
					got, want := g.NodeValues(id), o.NodeValues(id)
					if len(got) != len(want) {
						t.Fatalf("node %d: %d observations, oracle %d", id, len(got), len(want))
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("node %d observation %d: %x, oracle %x", id, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
						}
					}
				}
			})
		}
	}
}

// TestAdvanceColumnLength: a column that does not have one value per base
// series is refused with nothing extended.
func TestAdvanceColumnLength(t *testing.T) {
	g, err := datasets.Tourism(1).Graph()
	if err != nil {
		t.Fatal(err)
	}
	g.MaterializeAll()
	length := g.Length
	for _, n := range []int{0, len(g.BaseIDs) - 1, len(g.BaseIDs) + 1} {
		if err := g.Advance(make([]float64, n)); err == nil {
			t.Fatalf("a column of %d values for %d base series must be refused", n, len(g.BaseIDs))
		}
	}
	for id := 0; id < g.NumNodes(); id++ {
		if got := len(g.NodeValues(id)); got != length {
			t.Fatalf("node %d has %d observations after refused advances, want %d", id, got, length)
		}
	}
	for i, id := range g.BaseIDs {
		if ord, ok := g.BaseOrdinal(id); !ok || ord != i {
			t.Fatalf("BaseOrdinal(%d) = %d, %v; want %d", id, ord, ok, i)
		}
	}
	for _, id := range []int{-1, g.TopID, g.NumNodes()} {
		if _, ok := g.BaseOrdinal(id); ok {
			t.Fatalf("BaseOrdinal(%d) accepted an ID that is not a base node", id)
		}
	}
}
