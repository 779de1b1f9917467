package cube_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
// Before the first Advance and after every one, the column graph's Latest,
// History and Histories of every node — resident or not — equal the last
// value and the series of a third, fully materialized twin, bit for bit.
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
					rows := g.Histories()
					var row []float64
					for id := 0; id < g.NumNodes(); id++ {
						s := m.Node(id).Series
						if got, want := g.Latest(id), s.Values[len(s.Values)-1]; math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s: node %d Latest %x, materialized twin %x", when, id, math.Float64bits(got), math.Float64bits(want))
						}
						row = g.History(id, row)
						for name, got := range map[string][]float64{"History": row, "Histories": rows[id]} {
							if len(got) != len(s.Values) {
								t.Fatalf("%s: node %d %s holds %d values, materialized twin %d", when, id, name, len(got), len(s.Values))
							}
							for i, want := range s.Values {
								if math.Float64bits(got[i]) != math.Float64bits(want) {
									t.Fatalf("%s: node %d %s[%d] %x, materialized twin %x", when, id, name, i, math.Float64bits(got[i]), math.Float64bits(want))
								}
							}
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

// growthCubes are the graphs the growth tests advance: two data sets whose
// series start at different lengths, and a five-dimension cube of 16-point
// series that reaches three growth points within 49 advances.
func growthCubes() []*datasets.Dataset {
	return []*datasets.Dataset{
		datasets.Tourism(1),
		datasets.GenCube(1, datasets.CubeGenForNodes(1000, 2)),
		datasets.GenCube(1, datasets.CubeGenOptions{DimCards: [][]int{{4, 2}, {3}, {2}, {3}, {2}}, Length: 16, Period: 4}),
	}
}

// growthColumn is time point k's column: distinct values per base series.
func growthColumn(g *cube.Graph, k int) []float64 {
	column := make([]float64, len(g.BaseIDs))
	for i := range column {
		column[i] = float64(k*1000+i) / 7
	}
	return column
}

// full reports whether the node's series has no room for another value.
func full(g *cube.Graph, id int) bool {
	v := g.NodeValues(id)
	return len(v) == cap(v)
}

// TestAdvanceGrowthTwin holds the shared growth of Advance against
// AdvanceMapOracle's per-series append through at least three growth points,
// materializing nodes between advances: every resident series stays
// identical bit for bit. After every growth each resident node fills its
// spare capacity with a marker, as appends of its own would, and no node's
// values or length may change: the rows one allocation is carved into are
// capped at their ends.
func TestAdvanceGrowthTwin(t *testing.T) {
	for _, d := range growthCubes() {
		t.Run(d.Name, func(t *testing.T) {
			g, err := d.Graph()
			if err != nil {
				t.Fatal(err)
			}
			o, err := d.Graph()
			if err != nil {
				t.Fatal(err)
			}
			resident := append([]int(nil), g.BaseIDs...)
			same := func(when string, ids []int) {
				t.Helper()
				for _, id := range ids {
					got, want := g.NodeValues(id), o.NodeValues(id)
					if len(got) != len(want) {
						t.Fatalf("%s: node %d has %d observations, oracle %d", when, id, len(got), len(want))
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s: node %d observation %d: %x, oracle %x", when, id, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
						}
					}
				}
			}
			rng := rand.New(rand.NewSource(7))
			for k, growths := 0, 0; growths < 3; k++ {
				grows := full(g, g.BaseIDs[0])
				column := growthColumn(g, k)
				values := make(map[int]float64, len(column))
				for i, id := range g.BaseIDs {
					values[id] = column[i]
				}
				if err := g.Advance(column); err != nil {
					t.Fatal(err)
				}
				if err := cube.AdvanceMapOracle(o, values); err != nil {
					t.Fatal(err)
				}
				if grows {
					growths++
					for _, id := range resident {
						vals := g.NodeValues(id)
						spare := vals[len(vals):cap(vals)]
						for i := range spare {
							spare[i] = math.Inf(-1)
						}
					}
				}
				same(fmt.Sprintf("advance %d", k+1), resident)
				// Materialize a few nodes: they join the next growth.
				for i := 0; i < 1+g.NumNodes()/50; i++ {
					id := rng.Intn(g.NumNodes())
					g.Node(id)
					resident = append(resident, id)
				}
			}
			all := make([]int, g.NumNodes())
			for id := range all {
				all[id] = id
			}
			same("at the end", all)
		})
	}
}

// TestAdvanceGrowthRace: readers take the shared side of the lock the engine
// takes around Advance, pick up a node's series and read it again after
// letting go, while the writer advances through growth points under the
// exclusive side. A value below a slice's length never changes, so the
// second read must agree with the first — and under -race no write of
// Advance may touch memory a released reader still reads.
func TestAdvanceGrowthRace(t *testing.T) {
	d := growthCubes()[2]
	g, err := d.Graph()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.RWMutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := rng.Intn(g.NumNodes())
				mu.RLock()
				vals := g.NodeValues(id)
				var before float64
				for _, v := range vals {
					before += v
				}
				mu.RUnlock()
				var after float64
				for _, v := range vals {
					after += v
				}
				if math.Float64bits(before) != math.Float64bits(after) {
					t.Errorf("node %d: %d values summed to %v under the lock and %v after it", id, len(vals), before, after)
					return
				}
			}
		}(int64(w))
	}
	for k, growths := 0, 0; growths < 3; k++ {
		mu.Lock()
		if full(g, g.BaseIDs[0]) {
			growths++
		}
		err := g.Advance(growthColumn(g, k))
		mu.Unlock()
		if err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestAdvanceAllocs: an Advance that grows allocates exactly once, whatever
// the number of resident series — one allocation carved into a row per
// series — and one that does not grow allocates nothing. Nodes materialized
// between advances take the capacity the base series have, so every resident
// series is full exactly when the first base series is. Like
// testing.AllocsPerRun, each kind of advance is averaged over its calls and
// rounded down.
func TestAdvanceAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, d := range growthCubes() {
		for _, resident := range []string{"bases", "all", "some"} {
			t.Run(d.Name+"/"+resident, func(t *testing.T) {
				g, err := d.Graph()
				if err != nil {
					t.Fatal(err)
				}
				if resident == "all" {
					g.MaterializeAll()
				}
				columns := make([][]float64, 400)
				for k := range columns {
					columns[k] = growthColumn(g, k)
				}
				if err := g.Advance(columns[0]); err != nil { // also allocates Latest's table
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(5))
				var touched []int
				var calls, mallocs [2]uint64 // by whether the advance grows
				for k := 1; calls[1] < 2; k++ {
					grows := full(g, g.BaseIDs[0])
					for _, id := range touched {
						if full(g, id) != grows {
							t.Fatalf("before advance %d node %d is full %v, the base series %v", k+1, id, !grows, grows)
						}
					}
					kind := 0
					if grows {
						kind = 1
					}
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					err := g.Advance(columns[k])
					runtime.ReadMemStats(&after)
					if err != nil {
						t.Fatal(err)
					}
					calls[kind]++
					mallocs[kind] += after.Mallocs - before.Mallocs
					if resident == "some" {
						for i := 0; i < 1+g.NumNodes()/100; i++ {
							id := rng.Intn(g.NumNodes())
							g.Node(id)
							touched = append(touched, id)
						}
					}
				}
				if still, grew := mallocs[0]/calls[0], mallocs[1]/calls[1]; still != 0 || grew != 1 {
					t.Fatalf("with %d resident series an advance allocates %d times, one that grows %d; want 0 and 1", g.MaterializedNodes(), still, grew)
				}
			})
		}
	}
}
