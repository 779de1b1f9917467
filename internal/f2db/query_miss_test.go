package f2db

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/datasets"
	"cubefc/internal/derivation"
	"cubefc/internal/forecast"
)

// oracleGroupNodes is the GROUP BY half of Plan.resolve as it was before the
// child index: a scan of every coordinate of the graph for the ones at the
// grouped level whose other dimensions match. It is the definition the
// indexed descent is held to — IDs and members, in order.
func oracleGroupNodes(g *cube.Graph, coord cube.Coord, groupDim, groupLvl int, groupLevel string) (ids []int, members []string, err error) {
	for id := 0; id < g.NumNodes(); id++ {
		c := g.CoordOf(id)
		if c[groupDim].Level != groupLvl {
			continue
		}
		match := true
		for d := range g.Dims {
			if d != groupDim && c[d] != coord[d] {
				match = false
				break
			}
		}
		if match {
			ids = append(ids, id)
			members = append(members, c[groupDim].Value)
		}
	}
	if len(ids) == 0 {
		return nil, nil, fmt.Errorf("f2db: no time series match GROUP BY %s", groupLevel)
	}
	sort.Sort(byMember{ids, members})
	return ids, members, nil
}

// TestResolveNodesTwin holds the child-index GROUP BY resolution to the
// full-scan resolver on every (grouped level × WHERE combination) of the
// data sets the graph twins run on: each other dimension unconstrained, at
// each member of each of its levels, and at a member that does not exist
// (the "no time series match" rejection) — plus the rejections that never
// reach the member search.
func TestResolveNodesTwin(t *testing.T) {
	for _, d := range []*datasets.Dataset{
		datasets.Tourism(1),
		datasets.Sales(1),
		datasets.Energy(1, datasets.EnergyOptions{Customers: 30, Days: 40}),
		datasets.GenCube(1, datasets.CubeGenForNodes(1_000, 2)),
		datasets.GenCube(1, datasets.CubeGenOptions{DimCards: [][]int{{4, 2}, {3}, {2}, {3}, {2}}, Length: 16, Period: 4}),
	} {
		t.Run(d.Name, func(t *testing.T) {
			g, err := d.Graph()
			if err != nil {
				t.Fatal(err)
			}
			dims := g.Dims
			// choices[d] lists the ways a WHERE clause can treat dimension d.
			choices := make([][]predicate, len(dims))
			for dim := range dims {
				seen := map[cube.Cell]bool{}
				choices[dim] = []predicate{{}} // unconstrained
				for id := 0; id < g.NumNodes(); id++ {
					c := g.CoordOf(id)[dim]
					if c.Level < dims[dim].AllLevel() && !seen[c] {
						seen[c] = true
						choices[dim] = append(choices[dim], predicate{attr: dims[dim].Levels[c.Level], value: c.Value})
					}
				}
				for lvl := 0; lvl < dims[dim].AllLevel(); lvl++ {
					choices[dim] = append(choices[dim], predicate{attr: dims[dim].Levels[lvl], value: "no such member"})
				}
			}
			checked, rejected := 0, 0
			for groupDim := range dims {
				for groupLvl := 0; groupLvl < dims[groupDim].AllLevel(); groupLvl++ {
					stmt := &selectStmt{groupBy: true, groupLevel: dims[groupDim].Levels[groupLvl]}
					var walk func(dim int)
					walk = func(dim int) {
						if dim == groupDim {
							dim++
						}
						if dim >= len(dims) {
							coord := make(cube.Coord, len(dims))
							for i := range dims {
								coord[i] = cube.Cell{Level: dims[i].AllLevel()}
							}
							for _, p := range stmt.preds {
								for i := range dims {
									if lvl := dims[i].LevelIndex(p.attr); lvl >= 0 && lvl < dims[i].AllLevel() {
										coord[i] = cube.Cell{Level: lvl, Value: p.value}
										break
									}
								}
							}
							wantIDs, wantMembers, wantErr := oracleGroupNodes(g, coord, groupDim, groupLvl, stmt.groupLevel)
							pl := &Plan{stmt: *stmt}
							err := pl.resolve(g)
							ids, members := pl.Nodes, pl.Members
							if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(ids, wantIDs) || !reflect.DeepEqual(members, wantMembers) {
								t.Fatalf("GROUP BY %s WHERE %v:\n  index: %v %v, %v\n  scan:  %v %v, %v",
									stmt.groupLevel, stmt.preds, ids, members, err, wantIDs, wantMembers, wantErr)
							}
							checked++
							if err != nil {
								rejected++
							}
							return
						}
						for _, p := range choices[dim] {
							saved := stmt.preds
							if p.attr != "" {
								stmt.preds = append(stmt.preds[:len(saved):len(saved)], p)
							}
							walk(dim + 1)
							stmt.preds = saved
						}
					}
					walk(0)
				}
			}
			if checked == 0 || rejected == checked || rejected == 0 && len(dims) > 1 {
				t.Fatalf("%d combinations, %d rejected: the walk must see answers and rejections", checked, rejected)
			}

			// The rejections ahead of the member search are the same code as
			// before; pin their texts against a drift of the new tail.
			lvl0 := dims[0].Levels[0]
			for _, c := range []struct {
				stmt selectStmt
				want string
			}{
				{selectStmt{groupLevel: "nope"}, `f2db: unknown GROUP BY attribute "nope"`},
				{selectStmt{groupLevel: lvl0, preds: []predicate{{lvl0, "x"}}}, fmt.Sprintf("f2db: dimension %q is both grouped and constrained", dims[0].Name)},
				{selectStmt{groupLevel: lvl0, preds: []predicate{{"nope", "x"}}}, `f2db: unknown attribute "nope" in WHERE clause`},
			} {
				if err := (&Plan{stmt: c.stmt}).resolve(g); err == nil || err.Error() != c.want {
					t.Fatalf("%+v: got %v, want %s", c.stmt, err, c.want)
				}
			}
		})
	}
}

// missEngine opens an engine over a 49 × 4 cube (levels d0l0/d0l1 and
// d1l0/d1l1) with a hand-made configuration: one naive model at the top
// node and every node disaggregating from it. Hand-made so that what the
// tests below count and compare is the engine's query path, not whatever
// configuration the advisor picks this month.
func missEngine(t testing.TB, opts Options) (*DB, *cube.Graph) {
	t.Helper()
	g, err := datasets.GenCube(3, datasets.CubeGenOptions{DimCards: [][]int{{49, 7}, {4, 2}}, Length: 24, Period: 4}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.NewConfiguration(g, g.Length)
	m := forecast.NewNaive()
	if err := m.Fit(g.Node(g.TopID).Series); err != nil {
		t.Fatal(err)
	}
	cfg.Models[g.TopID] = m
	for id := 0; id < g.NumNodes(); id++ {
		if cfg.Schemes[id], err = derivation.NewScheme(g, id, []int{g.TopID}, 0); err != nil {
			t.Fatal(err)
		}
	}
	opts.Strategy = Never{}
	db, err := Open(g, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return db, g
}

const (
	missSingle = "SELECT time, SUM(m) FROM facts WHERE d0l0 = 'd0l0_7' AND d1l1 = 'd1l1_1' GROUP BY time AS OF now() + '3 steps'"
	missDrill  = "SELECT time, SUM(m) FROM facts WHERE d1l1 = 'd1l1_1' GROUP BY time, d0l0 AS OF now() + '3 steps'"
)

// TestQueryMissAllocs is the allocation gate of the cold read: with the read
// table off every Query parses, plans, derives and builds its rows. The
// statement is parsed into its one Plan; the forecasts of all groups are one
// slice that also holds their source forecasts; the rows of all groups are
// one slab and their keys one string.
func TestQueryMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db, _ := missEngine(t, Options{PlanCacheSize: -1})
	measure := func(sql string, groups int) float64 {
		res, err := db.Query(sql)
		if err != nil || len(res.Groups) != groups || len(res.Rows) != 3 {
			t.Fatalf("%s: %d groups, %v; want %d", sql, len(res.Groups), err, groups)
		}
		return testing.AllocsPerRun(16, func() {
			if _, err := db.Query(sql); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Before the one-slab miss path these read 21 and 279; before the
	// statement was parsed into its Plan and forecasts written into the
	// caller's slice, 20 and 122; before all groups' forecasts shared one
	// allocation, 6 and 64.
	single, drill := measure(missSingle, 1), measure(missDrill, 49)
	t.Logf("single-node miss %v allocations, 49-group drill-down miss %v", single, drill)
	if single > 8 || drill > 18 {
		t.Fatalf("a single-node miss allocates %v times and a 49-group drill-down miss %v; want ≤ 8 and ≤ 18", single, drill)
	}
}

// TestMemoOwnership: the read table hands its answers to every hit, so
// nothing the package returns may alias them. Scribbling over what
// ForecastNode and Query returned — after a miss, a hit and a second hit —
// must change neither the next ForecastNode nor the next Query answer.
func TestMemoOwnership(t *testing.T) {
	db, g := missEngine(t, Options{})
	id := g.LookupKey("d0l0=d0l0_7|d1l1=d1l1_1").ID
	ref, _ := missEngine(t, Options{PlanCacheSize: -1})
	want, err := ref.ForecastNode(id, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, when := range []string{"miss", "hit", "hit again"} {
		fc, err := db.ForecastNode(id, 3)
		if err != nil {
			t.Fatal(err)
		}
		hits := db.Metrics().ForecastCacheHits
		res, err := db.Query(missSingle)
		if err != nil {
			t.Fatal(err)
		}
		if got := db.Metrics().ForecastCacheHits - hits; (got == 1) != (when != "miss") {
			t.Fatalf("%s: %d table hits", when, got)
		}
		for i := range want {
			if math.Float64bits(fc[i]) != math.Float64bits(want[i]) || math.Float64bits(res.Rows[i].Value) != math.Float64bits(want[i]) {
				t.Fatalf("after a scribbled %s: ForecastNode %v, Query %v, want %v", when, fc, res.Rows, want)
			}
			fc[i] = math.NaN()
			res.Rows[i] = QueryRow{T: -1, Value: math.NaN(), Lo: math.NaN(), Hi: math.NaN()}
		}
	}
}
