package derivation

import (
	"math"
	"testing"
	"testing/quick"

	"cubefc/internal/cube"
	"cubefc/internal/timeseries"
)

// testGraph builds a one-dimension hierarchy: 4 cities in 2 regions. The
// base series are proportional (cityScale · t) so derivation weights are
// exact.
func testGraph(t *testing.T) *cube.Graph {
	t.Helper()
	loc, err := cube.NewHierarchy("location", []string{"city", "region"},
		[]map[string]string{{"C1": "R1", "C2": "R1", "C3": "R2", "C4": "R2"}})
	if err != nil {
		t.Fatal(err)
	}
	var base []cube.BaseSeries
	for i, c := range []string{"C1", "C2", "C3", "C4"} {
		vals := make([]float64, 10)
		for tt := range vals {
			vals[tt] = float64(i+1) * float64(tt+1)
		}
		base = append(base, cube.BaseSeries{Members: []string{c}, Series: timeseries.New(vals, 0)})
	}
	g, err := cube.NewGraph([]cube.Dimension{loc}, base)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func node(t *testing.T, g *cube.Graph, key string) int {
	t.Helper()
	id, ok := g.LookupID([]byte(key))
	if !ok {
		t.Fatalf("missing node %q", key)
	}
	return id
}

func TestWeightDisaggregation(t *testing.T) {
	g := testGraph(t)
	c1 := node(t, g, "city=C1")
	r1 := node(t, g, "region=R1")
	k, err := Weight(g, c1, []int{r1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// C1 has scale 1, R1 = C1+C2 has scale 3 → share 1/3.
	if math.Abs(k-1.0/3) > 1e-12 {
		t.Fatalf("k = %v, want 1/3", k)
	}
}

func TestWeightAggregationIsOne(t *testing.T) {
	g := testGraph(t)
	r1 := node(t, g, "region=R1")
	c1 := node(t, g, "city=C1")
	c2 := node(t, g, "city=C2")
	k, err := Weight(g, r1, []int{c1, c2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(k-1) > 1e-12 {
		t.Fatalf("aggregation weight = %v, want 1", k)
	}
}

func TestWeightRespectsHistoryLen(t *testing.T) {
	g := testGraph(t)
	c1 := node(t, g, "city=C1")
	top := g.TopID
	kFull, _ := Weight(g, c1, []int{top}, 0)
	kShort, _ := Weight(g, c1, []int{top}, 3)
	// Proportional series: shares identical over any prefix.
	if math.Abs(kFull-kShort) > 1e-12 {
		t.Fatalf("prefix weight %v != full weight %v for proportional data", kShort, kFull)
	}
}

func TestWeightErrors(t *testing.T) {
	g := testGraph(t)
	if _, err := Weight(g, 0, nil, 0); err == nil {
		t.Fatal("empty sources should fail")
	}
}

func TestSchemeApply(t *testing.T) {
	sc := Scheme{Target: 0, Sources: []int{1, 2}, K: 0.5}
	out, err := sc.Apply([][]float64{{2, 4}, {6, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 4 || out[1] != 6 {
		t.Fatalf("Apply = %v, want [4 6]", out)
	}
}

func TestSchemeApplyErrors(t *testing.T) {
	sc := Scheme{Target: 0, Sources: []int{1, 2}, K: 1}
	if _, err := sc.Apply([][]float64{{1}}); err == nil {
		t.Fatal("source count mismatch should fail")
	}
	if _, err := sc.Apply([][]float64{{1}, {1, 2}}); err == nil {
		t.Fatal("horizon mismatch should fail")
	}
	empty := Scheme{Target: 0}
	if _, err := empty.Apply(nil); err == nil {
		t.Fatal("empty sources should fail")
	}
}

func TestHistoricalErrorZeroForProportionalSeries(t *testing.T) {
	g := testGraph(t)
	c1 := node(t, g, "city=C1")
	top := g.TopID
	e, _, err := HistoricalIndicators(g, c1, []int{top}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e > 1e-12 {
		t.Fatalf("historical error = %v, want 0 for exactly proportional series", e)
	}
}

func TestHistoricalErrorPositiveForDissimilar(t *testing.T) {
	loc := cube.NewDimension("loc", "loc")
	a := cube.BaseSeries{Members: []string{"A"}, Series: timeseries.New([]float64{1, 10, 1, 10}, 0)}
	b := cube.BaseSeries{Members: []string{"B"}, Series: timeseries.New([]float64{10, 1, 10, 1}, 0)}
	g, err := cube.NewGraph([]cube.Dimension{loc}, []cube.BaseSeries{a, b})
	if err != nil {
		t.Fatal(err)
	}
	na := node(t, g, "loc=A")
	nb := node(t, g, "loc=B")
	e, _, err := HistoricalIndicators(g, na, []int{nb}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e < 0.5 {
		t.Fatalf("historical error = %v, want large for anti-correlated series", e)
	}
}

func TestWeightStability(t *testing.T) {
	g := testGraph(t)
	c1 := node(t, g, "city=C1")
	top := g.TopID
	if _, s, _ := HistoricalIndicators(g, c1, []int{top}, 0); s > 1e-12 {
		t.Fatalf("stability = %v, want 0 for constant share", s)
	}
}

func TestWeightStabilityFluctuating(t *testing.T) {
	loc := cube.NewDimension("loc", "loc")
	a := cube.BaseSeries{Members: []string{"A"}, Series: timeseries.New([]float64{1, 9, 1, 9, 1, 9}, 0)}
	b := cube.BaseSeries{Members: []string{"B"}, Series: timeseries.New([]float64{9, 1, 9, 1, 9, 1}, 0)}
	g, _ := cube.NewGraph([]cube.Dimension{loc}, []cube.BaseSeries{a, b})
	na := node(t, g, "loc=A")
	_, s, _ := HistoricalIndicators(g, na, []int{g.TopID}, 0)
	if s < 0.5 {
		t.Fatalf("stability = %v, want large for fluctuating share", s)
	}
}

func TestWeightStabilityDegenerate(t *testing.T) {
	loc := cube.NewDimension("loc", "loc")
	a := cube.BaseSeries{Members: []string{"A"}, Series: timeseries.New([]float64{0, 0}, 0)}
	g, _ := cube.NewGraph([]cube.Dimension{loc}, []cube.BaseSeries{a})
	if _, s, _ := HistoricalIndicators(g, g.TopID, []int{g.TopID}, 0); !math.IsInf(s, 1) {
		t.Fatalf("stability of all-zero series = %v, want +Inf", s)
	}
}

func TestClassify(t *testing.T) {
	g := testGraph(t)
	c1 := node(t, g, "city=C1")
	c2 := node(t, g, "city=C2")
	r1 := node(t, g, "region=R1")
	if k := Classify(g, c1, []int{c1}); k != Direct {
		t.Fatalf("self scheme = %v, want direct", k)
	}
	if k := Classify(g, c1, []int{r1}); k != Disaggregation {
		t.Fatalf("parent scheme = %v, want disaggregation", k)
	}
	if k := Classify(g, r1, []int{c1, c2}); k != Aggregation {
		t.Fatalf("children scheme = %v, want aggregation", k)
	}
	if k := Classify(g, c1, []int{c2}); k != General {
		t.Fatalf("sibling scheme = %v, want general", k)
	}
	if k := Classify(g, r1, []int{c1}); k != General {
		t.Fatalf("partial children = %v, want general", k)
	}
}

func TestNewSchemeAndKinds(t *testing.T) {
	g := testGraph(t)
	c1 := node(t, g, "city=C1")
	r1 := node(t, g, "region=R1")
	sc, err := NewScheme(g, c1, []int{r1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Kind != Disaggregation || math.Abs(sc.K-1.0/3) > 1e-12 {
		t.Fatalf("scheme = %+v", sc)
	}
}

func TestDirectScheme(t *testing.T) {
	sc := DirectScheme(5)
	if sc.K != 1 || sc.Kind != Direct || len(sc.Sources) != 1 || sc.Sources[0] != 5 {
		t.Fatalf("DirectScheme = %+v", sc)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Direct: "direct", Aggregation: "aggregation", Disaggregation: "disaggregation", General: "general"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q", k, k.String())
		}
	}
}

func TestDerivedForecastMatchesAggregateProperty(t *testing.T) {
	// Deriving a parent from all children with perfect child forecasts
	// must reproduce the parent exactly (k = 1 on complete data).
	g := testGraph(t)
	r1 := node(t, g, "region=R1")
	c1 := node(t, g, "city=C1")
	c2 := node(t, g, "city=C2")
	sc, err := NewScheme(g, r1, []int{c1, c2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := sc.Apply([][]float64{g.Node(c1).Series.Values, g.Node(c2).Series.Values})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fc {
		if math.Abs(fc[i]-g.Node(r1).Series.Values[i]) > 1e-9 {
			t.Fatalf("derived parent %v != actual %v", fc[i], g.Node(r1).Series.Values[i])
		}
	}
}

func TestWeightScaleInvarianceProperty(t *testing.T) {
	// k_{S→t} is scale free in time: multiplying every series by the same
	// constant leaves the weight unchanged. Verified over random scales.
	g := testGraph(t)
	c1 := node(t, g, "city=C1")
	top := g.TopID
	base, err := Weight(g, c1, []int{top}, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint8) bool {
		scale := 0.5 + float64(raw)/64 // in [0.5, 4.5]
		// Build a scaled copy of the graph.
		loc, _ := cube.NewHierarchy("location", []string{"city", "region"},
			[]map[string]string{{"C1": "R1", "C2": "R1", "C3": "R2", "C4": "R2"}})
		var bs []cube.BaseSeries
		for i, c := range []string{"C1", "C2", "C3", "C4"} {
			vals := make([]float64, 10)
			for tt := range vals {
				vals[tt] = scale * float64(i+1) * float64(tt+1)
			}
			bs = append(bs, cube.BaseSeries{Members: []string{c}, Series: timeseries.New(vals, 0)})
		}
		g2, err := cube.NewGraph([]cube.Dimension{loc}, bs)
		if err != nil {
			return false
		}
		k, err := Weight(g2, node(t, g2, "city=C1"), []int{g2.TopID}, 0)
		if err != nil {
			return false
		}
		return math.Abs(k-base) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistoricalErrorPrefixMonotonicityProperty(t *testing.T) {
	// For proportional data the historical error is zero over any prefix.
	g := testGraph(t)
	c2 := node(t, g, "city=C2")
	for _, hl := range []int{2, 4, 6, 8, 10, 0} {
		e, _, err := HistoricalIndicators(g, c2, []int{g.TopID}, hl)
		if err != nil {
			t.Fatal(err)
		}
		if e > 1e-12 {
			t.Fatalf("historyLen=%d: error %v, want 0", hl, e)
		}
	}
}
