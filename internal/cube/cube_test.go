package cube

import (
	"math"
	"testing"
	"testing/quick"

	"cubefc/internal/timeseries"
)

// fig1Graph builds the paper's running example: products P1..P2 and a
// location hierarchy city → region (C1,C2 → R1; C3,C4 → R2).
func fig1Dims(t *testing.T) []Dimension {
	t.Helper()
	loc, err := NewHierarchy("location", []string{"city", "region"},
		[]map[string]string{{"C1": "R1", "C2": "R1", "C3": "R2", "C4": "R2"}})
	if err != nil {
		t.Fatal(err)
	}
	return []Dimension{NewDimension("product", "product"), loc}
}

func fig1Base(n int) []BaseSeries {
	var base []BaseSeries
	id := 1.0
	for _, p := range []string{"P1", "P2"} {
		for _, c := range []string{"C1", "C2", "C3", "C4"} {
			vals := make([]float64, n)
			for t := range vals {
				vals[t] = id * float64(t+1)
			}
			base = append(base, BaseSeries{Members: []string{p, c}, Series: timeseries.New(vals, 4)})
			id++
		}
	}
	return base
}

func fig1Graph(t *testing.T) *Graph {
	t.Helper()
	g, err := NewGraph(fig1Dims(t), fig1Base(8))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewHierarchyValidation(t *testing.T) {
	if _, err := NewHierarchy("x", nil, nil); err == nil {
		t.Error("empty levels should fail")
	}
	if _, err := NewHierarchy("x", []string{"a", "b"}, nil); err == nil {
		t.Error("missing parent maps should fail")
	}
}

func TestDimensionLevels(t *testing.T) {
	dims := fig1Dims(t)
	loc := dims[1]
	if loc.AllLevel() != 2 {
		t.Fatalf("AllLevel = %d, want 2", loc.AllLevel())
	}
	if loc.LevelIndex("city") != 0 || loc.LevelIndex("region") != 1 {
		t.Fatal("LevelIndex wrong")
	}
	if loc.LevelIndex("*") != 2 || loc.LevelIndex("") != 2 {
		t.Fatal("ALL level index wrong")
	}
	if loc.LevelIndex("country") != -1 {
		t.Fatal("unknown level should be -1")
	}
}

func TestAncestor(t *testing.T) {
	loc := fig1Dims(t)[1]
	v, err := loc.Ancestor("C3", 0, 1)
	if err != nil || v != "R2" {
		t.Fatalf("Ancestor(C3, city→region) = %q, %v", v, err)
	}
	v, err = loc.Ancestor("C3", 0, 2)
	if err != nil || v != "" {
		t.Fatalf("Ancestor to ALL = %q, %v", v, err)
	}
	if _, err := loc.Ancestor("R1", 1, 0); err == nil {
		t.Error("downward Ancestor should fail")
	}
	if _, err := loc.Ancestor("CX", 0, 1); err == nil {
		t.Error("unknown member should fail")
	}
	// A level without a parent map, as a corrupt image can describe one,
	// is an error and not an index out of range.
	short := Dimension{Name: "location", Levels: []string{"city", "region", "state"}, Parents: loc.Parents}
	if _, err := short.Ancestor("C3", 0, 2); err == nil {
		t.Error("a level without a parent map should fail")
	}
}

func TestKeyRoundTrip(t *testing.T) {
	dims := fig1Dims(t)
	coords := []Coord{
		{{Level: 0, Value: "P1"}, {Level: 0, Value: "C3"}},
		{{Level: 0, Value: "P2"}, {Level: 1, Value: "R1"}},
		{{Level: 1}, {Level: 2}},
	}
	for _, c := range coords {
		key := c.Key(dims)
		back, err := ParseKey(key, dims)
		if err != nil {
			t.Fatalf("ParseKey(%q): %v", key, err)
		}
		if back.Key(dims) != key {
			t.Fatalf("round trip %q -> %q", key, back.Key(dims))
		}
	}
}

func TestParseKeyErrors(t *testing.T) {
	dims := fig1Dims(t)
	for _, bad := range []string{"", "product=P1", "product=P1|city=C1|extra=x", "nolevel|*", "bogus=P1|*"} {
		if _, err := ParseKey(bad, dims); err == nil {
			t.Errorf("ParseKey(%q) should fail", bad)
		}
	}
}

func TestGraphNodeCount(t *testing.T) {
	g := fig1Graph(t)
	// product options: P1, P2, * (3); location options: 4 cities, 2
	// regions, * (7) → 21 nodes.
	if g.NumNodes() != 21 {
		t.Fatalf("NumNodes = %d, want 21", g.NumNodes())
	}
	if len(g.BaseIDs) != 8 {
		t.Fatalf("base nodes = %d, want 8", len(g.BaseIDs))
	}
}

func TestGraphEncodesFunctionalDependency(t *testing.T) {
	g := fig1Graph(t)
	// "C1*P2" is not an aggregation possibility: a coordinate holds one
	// cell per dimension, so city-level plus region-ALL cannot coexist —
	// the location dimension is either at city, region, or ALL level.
	for nid := 0; nid < g.NumNodes(); nid++ {
		if len(g.CoordOf(nid)) != 2 {
			t.Fatal("coordinate arity broken")
		}
	}
	// There is exactly one location cell per node; a node with city=C1
	// exists, and its key mentions city, not region.
	coord := Coord{{Level: 0, Value: "P2"}, {Level: 0, Value: "C1"}}
	n := lookup(g, coord)
	if n == nil {
		t.Fatal("missing base node P2/C1")
	}
	if g.KeyOf(n.ID) != "product=P2|city=C1" {
		t.Fatalf("key = %q", g.KeyOf(n.ID))
	}
}

// lookup resolves a coordinate to its node, or nil if absent.
func lookup(g *Graph, coord Coord) *Node {
	if id, ok := g.LookupCoord(coord); ok {
		return g.Node(id)
	}
	return nil
}

func TestAggregationCorrectness(t *testing.T) {
	g := fig1Graph(t)
	// Region R1 of product P1 = C1 + C2 of P1.
	r1 := lookup(g, Coord{{Level: 0, Value: "P1"}, {Level: 1, Value: "R1"}})
	c1 := lookup(g, Coord{{Level: 0, Value: "P1"}, {Level: 0, Value: "C1"}})
	c2 := lookup(g, Coord{{Level: 0, Value: "P1"}, {Level: 0, Value: "C2"}})
	if r1 == nil || c1 == nil || c2 == nil {
		t.Fatal("missing nodes")
	}
	for i := range r1.Series.Values {
		want := c1.Series.Values[i] + c2.Series.Values[i]
		if math.Abs(r1.Series.Values[i]-want) > 1e-9 {
			t.Fatalf("R1 aggregate wrong at %d: %v vs %v", i, r1.Series.Values[i], want)
		}
	}
}

func TestTopIsTotalSum(t *testing.T) {
	g := fig1Graph(t)
	top := g.Node(g.TopID)
	var want float64
	for _, id := range g.BaseIDs {
		want += g.Node(id).Series.Sum()
	}
	if math.Abs(top.Series.Sum()-want) > 1e-9 {
		t.Fatalf("top sum = %v, want %v", top.Series.Sum(), want)
	}
}

func TestChildEdges(t *testing.T) {
	g := fig1Graph(t)
	// Node (P1, R1) has one child hyper edge along location: {C1, C2}.
	r1 := lookup(g, Coord{{Level: 0, Value: "P1"}, {Level: 1, Value: "R1"}})
	if len(g.ChildrenAlong(r1.ID, 0)) != 0 {
		t.Fatal("product dimension at finest level should have no child edge")
	}
	if len(g.ChildrenAlong(r1.ID, 1)) != 2 {
		t.Fatalf("location child edge = %v", g.ChildrenAlong(r1.ID, 1))
	}
	// The top node has two hyper edges: product (2 children) and
	// location (2 regions).
	if len(g.ChildrenAlong(g.TopID, 0)) != 2 || len(g.ChildrenAlong(g.TopID, 1)) != 2 {
		t.Fatalf("top child edges = %v %v", g.ChildrenAlong(g.TopID, 0), g.ChildrenAlong(g.TopID, 1))
	}
}

func TestOneSeriesContributesToSeveralAggregates(t *testing.T) {
	g := fig1Graph(t)
	// Property (2) of the paper: C1R1P2 can aggregate to C1R1* or *R1P2.
	c1p2 := lookup(g, Coord{{Level: 0, Value: "P2"}, {Level: 0, Value: "C1"}})
	parents := 0
	for _, p := range g.ParentsOf(c1p2.ID) {
		if p >= 0 {
			parents++
		}
	}
	if parents != 2 {
		t.Fatalf("base node should roll up along both dimensions, got %d", parents)
	}
}

func TestCovers(t *testing.T) {
	g := fig1Graph(t)
	top := g.Node(g.TopID)
	base := g.Node(g.BaseIDs[0])
	if !g.Covers(top.ID, base.ID) {
		t.Error("top must cover every base node")
	}
	if g.Covers(base.ID, top.ID) {
		t.Error("base cannot cover top")
	}
	if !g.Covers(base.ID, base.ID) {
		t.Error("node covers itself")
	}
	r1 := lookup(g, Coord{{Level: 0, Value: "P1"}, {Level: 1, Value: "R1"}})
	c3 := lookup(g, Coord{{Level: 0, Value: "P1"}, {Level: 0, Value: "C3"}})
	if g.Covers(r1.ID, c3.ID) {
		t.Error("R1 must not cover C3 (C3 belongs to R2)")
	}
}

func TestSummingVector(t *testing.T) {
	g := fig1Graph(t)
	top := g.Node(g.TopID)
	if got := g.CoveredBases(top.ID); len(got) != 8 {
		t.Fatalf("top summing vector = %v", got)
	}
	r2 := lookup(g, Coord{{Level: 2}, {Level: 1, Value: "R2"}})
	if got := g.CoveredBases(r2.ID); len(got) != 4 {
		t.Fatalf("*|R2 summing vector = %v, want 4 base nodes", got)
	}
}

func TestClosestNodes(t *testing.T) {
	g := fig1Graph(t)
	base := g.BaseIDs[0]
	var bfs BFSScratch
	cn := g.ClosestNodes(&bfs, base, 5)
	if len(cn) != 5 {
		t.Fatalf("ClosestNodes returned %d", len(cn))
	}
	seen := map[int]bool{base: true}
	for _, id := range cn {
		if seen[id] {
			t.Fatal("duplicate/self in ClosestNodes")
		}
		seen[id] = true
	}
	// First neighbors must be the node's direct parents.
	wantParents := map[int]bool{}
	for _, p := range g.ParentsOf(base) {
		if p >= 0 {
			wantParents[int(p)] = true
		}
	}
	for _, id := range cn[:2] {
		if !wantParents[id] {
			t.Fatalf("nearest nodes %v should start with direct parents %v", cn, wantParents)
		}
	}
	if got := g.ClosestNodes(&bfs, base, 0); got != nil {
		t.Fatal("k=0 should return nil")
	}
	if got := g.ClosestNodes(&bfs, base, 1000); len(got) != g.NumNodes()-1 {
		t.Fatalf("k>n should return all other nodes, got %d", len(got))
	}
}

func TestAdvance(t *testing.T) {
	g := fig1Graph(t)
	lenBefore := g.Length
	vals := make(map[int]float64, len(g.BaseIDs))
	for i, id := range g.BaseIDs {
		vals[id] = float64(i + 1)
	}
	if err := AdvanceMap(g, vals); err != nil {
		t.Fatal(err)
	}
	if g.Length != lenBefore+1 {
		t.Fatalf("Length = %d", g.Length)
	}
	var want float64
	for _, v := range vals {
		want += v
	}
	got := g.Node(g.TopID).Series.Values[lenBefore]
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("top new value = %v, want %v", got, want)
	}
}

// TestAdvanceValidation: a batch with the wrong count, an aggregate ID or
// an out-of-range ID is refused before anything is extended — Length and
// every materialized series stay as they were.
func TestAdvanceValidation(t *testing.T) {
	g := fig1Graph(t)
	g.MaterializeAll()
	full := func(swap int) map[int]float64 {
		m := make(map[int]float64, len(g.BaseIDs))
		for _, id := range g.BaseIDs[1:] {
			m[id] = 1
		}
		m[swap] = 1
		return m
	}
	for name, bad := range map[string]map[int]float64{
		"partial batch": {g.BaseIDs[0]: 1},
		"aggregate id":  full(g.TopID),
		"id too large":  full(g.NumNodes()),
		"negative id":   full(-1),
	} {
		if err := AdvanceMap(g, bad); err == nil {
			t.Fatalf("%s should fail", name)
		}
		if g.Length != 8 {
			t.Fatalf("%s: Length = %d after a refused Advance, want 8", name, g.Length)
		}
		for id := 0; id < g.NumNodes(); id++ {
			if n := g.Node(id).Series.Len(); n != 8 {
				t.Fatalf("%s: node %d has %d observations after a refused Advance, want 8", name, id, n)
			}
		}
	}
	if err := AdvanceMap(g, full(g.BaseIDs[0])); err != nil {
		t.Fatal(err)
	}
}

func TestNewGraphValidation(t *testing.T) {
	dims := fig1Dims(t)
	if _, err := NewGraph(dims, nil); err == nil {
		t.Fatal("empty base should fail")
	}
	if _, err := NewGraph(dims, []BaseSeries{{Members: []string{"P1"}, Series: timeseries.New([]float64{1}, 0)}}); err == nil {
		t.Fatal("member arity mismatch should fail")
	}
	base := fig1Base(8)
	base[3].Series = timeseries.New([]float64{1, 2}, 4)
	if _, err := NewGraph(dims, base); err == nil {
		t.Fatal("length mismatch should fail")
	}
	for _, i := range []int{0, 3} {
		base = fig1Base(8)
		base[i].Series = nil
		if _, err := NewGraph(dims, base); err == nil {
			t.Fatalf("base series %d without a series should fail", i)
		}
	}
}

// TestGraphRejectsAmbiguousInput holds NewGraph to the input rules its doc
// comment states and keys depend on. Bases (x|b=y, z) and (x, y|b=z) of
// flat dimensions a and b both render the key a=x|b=y|b=z, so a lookup, an
// INSERT or a reloaded configuration would land on whichever node the index
// kept: a member value holding the separator is refused, naming the series
// and the dimension, and so is a level name holding it. So is a base whose
// period differs from the first's, and a repeated base, also when its node
// is the last one created.
func TestGraphRejectsAmbiguousInput(t *testing.T) {
	dims := []Dimension{NewDimension("a", "a"), NewDimension("b", "b")}
	series := func(period int) *timeseries.Series { return timeseries.New([]float64{1, 2, 3, 4}, period) }
	for _, tc := range []struct {
		base []BaseSeries
		want string
	}{
		{[]BaseSeries{{Members: []string{"x|b=y", "z"}, Series: series(2)}, {Members: []string{"x", "y|b=z"}, Series: series(2)}},
			`cube: base series 0: value "x|b=y" of dimension "a" contains '|', the key separator`},
		{[]BaseSeries{{Members: []string{"x", "y"}, Series: series(2)}, {Members: []string{"x", "y|b=z"}, Series: series(2)}},
			`cube: base series 1: value "y|b=z" of dimension "b" contains '|', the key separator`},
		{[]BaseSeries{{Members: []string{"x", "y"}, Series: series(2)}, {Members: []string{"x", "z"}, Series: series(4)}},
			`cube: base series 1 has period 4, want 2`},
		{[]BaseSeries{{Members: []string{"x", "y"}, Series: series(2)}, {Members: []string{"w", "z"}, Series: series(2)},
			{Members: []string{"x", "z"}, Series: series(2)}, {Members: []string{"x", "z"}, Series: series(2)}},
			`cube: duplicate base coordinate "a=x|b=z" (series 3)`},
	} {
		if _, err := NewGraph(dims, tc.base); err == nil || err.Error() != tc.want {
			t.Errorf("NewGraph(%v, %v, ...): got %v, want %s", tc.base[0].Members, tc.base[1].Members, err, tc.want)
		}
	}
	if _, err := NewGraph(nil, fig1Base(4)); err == nil {
		t.Error("a graph without dimensions must be refused")
	}
	// A level name holding the separator would split its key parts too, so no
	// non-ALL node of its dimension would resolve.
	split := []Dimension{NewDimension("a", "a|b"), NewDimension("b", "b")}
	want := `cube: level "a|b" of dimension "a" contains '|', the key separator`
	if _, err := NewGraph(split, []BaseSeries{{Members: []string{"x", "y"}, Series: series(2)}}); err == nil || err.Error() != want {
		t.Errorf("NewGraph with level a|b: got %v, want %s", err, want)
	}
}

func TestLookupKeyAndMissing(t *testing.T) {
	g := fig1Graph(t)
	if _, ok := g.LookupID([]byte("product=P1|city=C1")); !ok {
		t.Fatal("LookupID failed")
	}
	if _, ok := g.LookupID([]byte("product=P9|city=C1")); ok {
		t.Fatal("missing key resolved")
	}
	if _, ok := g.LookupCoord(Coord{{Level: 0, Value: "P9"}, {Level: 2}}); ok {
		t.Fatal("missing coord resolved")
	}
}

func TestGraphDeterministicIDs(t *testing.T) {
	a := fig1Graph(t)
	b := fig1Graph(t)
	if a.NumNodes() != b.NumNodes() || a.TopID != b.TopID {
		t.Fatal("graph construction not deterministic")
	}
	for i := 0; i < a.NumNodes(); i++ {
		if a.KeyOf(i) != b.KeyOf(i) {
			t.Fatalf("node %d key differs", i)
		}
	}
}

func TestAggregateInvariantProperty(t *testing.T) {
	// Property: for every non-base node, its series equals the sum of the
	// series of each of its child hyper edges.
	g := fig1Graph(t)
	for nid := 0; nid < g.NumNodes(); nid++ {
		if g.IsBase(nid) {
			continue
		}
		n := g.Node(nid)
		edges := 0
		for d := range g.Dims {
			children := g.ChildrenAlong(nid, d)
			if len(children) == 0 {
				continue
			}
			edges++
			for i := range n.Series.Values {
				var sum float64
				for _, c := range children {
					sum += g.Node(int(c)).Series.Values[i]
				}
				if math.Abs(sum-n.Series.Values[i]) > 1e-9 {
					t.Fatalf("node %s: aggregate mismatch at t=%d", g.KeyOf(nid), i)
				}
			}
		}
		if edges == 0 {
			t.Fatalf("aggregated node %s has no child edge", g.KeyOf(nid))
		}
	}
}

func TestDepths(t *testing.T) {
	g := fig1Graph(t)
	if g.DepthOf(g.TopID) != 3 { // product ALL (1) + location ALL (2)
		t.Fatalf("top depth = %d, want 3", g.DepthOf(g.TopID))
	}
	for _, id := range g.BaseIDs {
		if g.DepthOf(id) != 0 || !g.IsBase(id) {
			t.Fatal("base depth broken")
		}
	}
}

func TestCoordKeyQuickProperty(t *testing.T) {
	dims := fig1Dims(t)
	cities := []string{"C1", "C2", "C3", "C4"}
	f := func(p, c uint8) bool {
		coord := Coord{
			{Level: 0, Value: []string{"P1", "P2"}[int(p)%2]},
			{Level: 0, Value: cities[int(c)%4]},
		}
		back, err := ParseKey(coord.Key(dims), dims)
		if err != nil {
			return false
		}
		return back[0] == coord[0] && back[1] == coord[1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// threeLevelGraph builds a cube with a three-named-level hierarchy
// (store < city < country) to exercise deep functional-dependency chains.
func threeLevelGraph(t *testing.T) *Graph {
	t.Helper()
	stores := map[string]string{"S1": "C1", "S2": "C1", "S3": "C2", "S4": "C2", "S5": "C3", "S6": "C3"}
	cities := map[string]string{"C1": "DE", "C2": "DE", "C3": "FR"}
	dim, err := NewHierarchy("location", []string{"store", "city", "country"},
		[]map[string]string{stores, cities})
	if err != nil {
		t.Fatal(err)
	}
	var base []BaseSeries
	i := 1.0
	for _, s := range []string{"S1", "S2", "S3", "S4", "S5", "S6"} {
		vals := make([]float64, 6)
		for tt := range vals {
			vals[tt] = i * float64(tt+1)
		}
		base = append(base, BaseSeries{Members: []string{s}, Series: timeseries.New(vals, 0)})
		i++
	}
	g, err := NewGraph([]Dimension{dim}, base)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestThreeLevelHierarchy(t *testing.T) {
	g := threeLevelGraph(t)
	// Nodes: 6 stores + 3 cities + 2 countries + ALL = 12.
	if g.NumNodes() != 12 {
		t.Fatalf("nodes = %d, want 12", g.NumNodes())
	}
	de := lookup(g, Coord{{Level: 2, Value: "DE"}})
	if de == nil {
		t.Fatal("missing country node")
	}
	// DE = C1 + C2 = S1..S4.
	if got := g.CoveredBaseCount(de.ID); got != 4 {
		t.Fatalf("DE covers %d stores, want 4", got)
	}
	// Its child edge along the dimension is the city level, not stores.
	children := g.ChildrenAlong(de.ID, 0)
	if len(children) != 2 {
		t.Fatalf("DE children = %v, want the 2 cities", children)
	}
	for _, c := range children {
		if g.CellOf(int(c), 0).Level != 1 {
			t.Fatal("DE children must be city-level nodes")
		}
	}
	// Depth of the top is 3 (store → city → country → ALL).
	if g.DepthOf(g.TopID) != 3 {
		t.Fatalf("top depth = %d", g.DepthOf(g.TopID))
	}
	// Aggregation correctness across two hops.
	var want float64
	for _, bid := range g.CoveredBases(de.ID) {
		want += g.Node(bid).Series.Values[5]
	}
	if math.Abs(de.Series.Values[5]-want) > 1e-9 {
		t.Fatal("country aggregate wrong")
	}
}

func TestSparseCube(t *testing.T) {
	// Not every product × city combination exists; the graph must only
	// contain nodes with data, and aggregates must match the sparse sums.
	dims := []Dimension{NewDimension("product", "product"), NewDimension("city", "city")}
	mk := func(p, c string, scale float64) BaseSeries {
		vals := []float64{scale, 2 * scale}
		return BaseSeries{Members: []string{p, c}, Series: timeseries.New(vals, 0)}
	}
	// P1 sold in C1 and C2, P2 only in C2.
	g, err := NewGraph(dims, []BaseSeries{mk("P1", "C1", 1), mk("P1", "C2", 10), mk("P2", "C2", 100)})
	if err != nil {
		t.Fatal(err)
	}
	// P2/C1 must not exist.
	if lookup(g, Coord{{Level: 0, Value: "P2"}, {Level: 0, Value: "C1"}}) != nil {
		t.Fatal("node without data must not exist")
	}
	// P2 aggregate = only its C2 series.
	p2 := lookup(g, Coord{{Level: 0, Value: "P2"}, {Level: 1}})
	if p2 == nil || p2.Series.Values[0] != 100 {
		t.Fatalf("sparse aggregate wrong: %+v", p2)
	}
	// Top = 111, 222.
	if g.Node(g.TopID).Series.Values[1] != 222 {
		t.Fatalf("top = %v", g.Node(g.TopID).Series.Values)
	}
}

func TestAdvanceUsesCoverCache(t *testing.T) {
	g := fig1Graph(t)
	mk := func(v float64) map[int]float64 {
		out := make(map[int]float64, len(g.BaseIDs))
		for _, id := range g.BaseIDs {
			out[id] = v
		}
		return out
	}
	if err := AdvanceMap(g, mk(1)); err != nil {
		t.Fatal(err)
	}
	if err := AdvanceMap(g, mk(2)); err != nil {
		t.Fatal(err)
	}
	// Both advances must aggregate identically (cache correctness).
	n := g.Length
	if g.Node(g.TopID).Series.Values[n-1] != 2*float64(len(g.BaseIDs)) {
		t.Fatalf("second advance aggregate wrong: %v", g.Node(g.TopID).Series.Values[n-1])
	}
	if g.Node(g.TopID).Series.Values[n-2] != float64(len(g.BaseIDs)) {
		t.Fatalf("first advance aggregate wrong: %v", g.Node(g.TopID).Series.Values[n-2])
	}
}
