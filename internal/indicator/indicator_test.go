package indicator

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"cubefc/internal/cube"
	"cubefc/internal/datasets"
	"cubefc/internal/timeseries"
)

func testGraph(t *testing.T) *cube.Graph {
	t.Helper()
	loc := cube.NewDimension("loc", "loc")
	rng := rand.New(rand.NewSource(1))
	var base []cube.BaseSeries
	for _, m := range []string{"A", "B", "C"} {
		vals := make([]float64, 12)
		for i := range vals {
			vals[i] = 10 + 5*float64(i) + rng.NormFloat64()
		}
		base = append(base, cube.BaseSeries{Members: []string{m}, Series: timeseries.New(vals, 0)})
	}
	g, err := cube.NewGraph([]cube.Dimension{loc}, base)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCombinedBounds(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig()
	for s := 0; s < g.NumNodes(); s++ {
		for tgt := 0; tgt < g.NumNodes(); tgt++ {
			v := Combined(g, tgt, []int{s}, cfg)
			if v < 0 || v > Worst {
				t.Fatalf("Combined(%d←%d) = %v out of [0,1]", tgt, s, v)
			}
		}
	}
}

func TestCombinedSimilarBeatsDissimilar(t *testing.T) {
	loc := cube.NewDimension("loc", "loc")
	mk := func(f func(int) float64) *timeseries.Series {
		vals := make([]float64, 16)
		for i := range vals {
			vals[i] = f(i)
		}
		return timeseries.New(vals, 0)
	}
	base := []cube.BaseSeries{
		{Members: []string{"A"}, Series: mk(func(i int) float64 { return 10 + float64(i) })},
		{Members: []string{"B"}, Series: mk(func(i int) float64 { return 20 + 2*float64(i) })}, // proportional-ish to A
		{Members: []string{"C"}, Series: mk(func(i int) float64 { return 50 - 3*float64(i) })}, // opposite trend
	}
	g, err := cube.NewGraph([]cube.Dimension{loc}, base)
	if err != nil {
		t.Fatal(err)
	}
	a := g.LookupKey("loc=A").ID
	b := g.LookupKey("loc=B").ID
	c := g.LookupKey("loc=C").ID
	cfg := DefaultConfig()
	simErr := Combined(g, a, []int{b}, cfg)
	disErr := Combined(g, a, []int{c}, cfg)
	if simErr >= disErr {
		t.Fatalf("similar-source indicator %v should beat dissimilar %v", simErr, disErr)
	}
}

func TestCombinedStabilityWeightDisabled(t *testing.T) {
	g := testGraph(t)
	with := Combined(g, 0, []int{1}, Config{StabilityWeight: 0.5})
	without := Combined(g, 0, []int{1}, Config{StabilityWeight: 0})
	if without > with+1e-12 {
		t.Fatalf("disabling the stability term must not raise the indicator: %v vs %v", without, with)
	}
}

func TestComputeLocal(t *testing.T) {
	g := testGraph(t)
	l := ComputeLocal(g, 0, []int{1, 2}, DefaultConfig())
	if l.Values[0] != 0 {
		t.Fatal("source's own indicator must be 0")
	}
	if len(l.Values) != 3 {
		t.Fatalf("local size = %d, want 3", len(l.Values))
	}
}

func TestGlobalMergeSemantics(t *testing.T) {
	gi := NewGlobal(3)
	if gi.Values[0] != Worst || gi.Source[0] != -1 {
		t.Fatal("fresh global should be Worst/-1")
	}
	l1 := &Local{Source: 0, Targets: []int{0, 1, 2}, Values: []float64{0, 0.5, 0.9}}
	l2 := &Local{Source: 1, Targets: []int{1, 2}, Values: []float64{0, 0.3}}
	gi.Merge(l1)
	gi.Merge(l2)
	if gi.Values[1] != 0 || gi.Source[1] != 1 {
		t.Fatalf("node 1: %v from %d", gi.Values[1], gi.Source[1])
	}
	if gi.Values[2] != 0.3 || gi.Source[2] != 1 {
		t.Fatalf("node 2: %v from %d", gi.Values[2], gi.Source[2])
	}
	if gi.Values[0] != 0 || gi.Source[0] != 0 {
		t.Fatalf("node 0: %v from %d", gi.Values[0], gi.Source[0])
	}
}

func TestMergeKeepsMinimum(t *testing.T) {
	gi := NewGlobal(1)
	gi.Merge(&Local{Source: 0, Targets: []int{0}, Values: []float64{0.2}})
	gi.Merge(&Local{Source: 1, Targets: []int{0}, Values: []float64{0.6}})
	if gi.Values[0] != 0.2 || gi.Source[0] != 0 {
		t.Fatal("Merge must keep the minimum")
	}
}

func TestRebuild(t *testing.T) {
	locals := map[int]*Local{
		0: {Source: 0, Targets: []int{0, 1}, Values: []float64{0, 0.4}},
		1: {Source: 1, Targets: []int{1, 2}, Values: []float64{0, 0.2}},
	}
	gi := Rebuild(3, locals)
	if gi.Values[0] != 0 || gi.Values[1] != 0 || gi.Values[2] != 0.2 {
		t.Fatalf("Rebuild = %v", gi.Values)
	}
	// Removing local 1 must restore Worst at node 2.
	delete(locals, 1)
	gi = Rebuild(3, locals)
	if gi.Values[2] != Worst || gi.Source[2] != -1 {
		t.Fatalf("after removal: %v from %d", gi.Values[2], gi.Source[2])
	}
}

func TestMeanStd(t *testing.T) {
	gi := NewGlobal(2)
	gi.Values = []float64{0.2, 0.6}
	mean, std := gi.MeanStd()
	if math.Abs(mean-0.4) > 1e-12 || math.Abs(std-0.2) > 1e-12 {
		t.Fatalf("MeanStd = %v, %v", mean, std)
	}
	empty := &Global{}
	if m, s := empty.MeanStd(); m != 0 || s != 0 {
		t.Fatal("empty MeanStd should be 0,0")
	}
}

func TestMergedSumMatchesCloneMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func() bool {
		n := 2 + rng.Intn(20)
		gi := NewGlobal(n)
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.5 {
				gi.Values[i] = rng.Float64()
				gi.Source[i] = 0
			}
		}
		l := &Local{Source: 1}
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.5 {
				l.Targets = append(l.Targets, i)
				l.Values = append(l.Values, rng.Float64())
			}
		}
		want := gi.Clone()
		want.Merge(l)
		return math.Abs(gi.MergedSum(l)-want.Sum()) < 1e-9
	}
	for i := 0; i < 100; i++ {
		if !f() {
			t.Fatal("MergedSum disagrees with Clone+Merge+Sum")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	gi := NewGlobal(2)
	c := gi.Clone()
	c.Values[0] = 0
	c.Source[0] = 7
	if gi.Values[0] != Worst || gi.Source[0] != -1 {
		t.Fatal("Clone shares storage")
	}
}

func TestCombinedQuickNonNegative(t *testing.T) {
	g := testGraph(t)
	f := func(s, tgt uint8, w float64) bool {
		cfg := Config{StabilityWeight: math.Mod(math.Abs(w), 2)}
		v := Combined(g, int(tgt)%g.NumNodes(), []int{int(s) % g.NumNodes()}, cfg)
		return v >= 0 && v <= Worst
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCombinedAllocs is the allocation gate of the indicator cell: the
// advisor computes one per (candidate, neighbour) pair — some 137 000 per
// run on a 5 041-node cube — and it allocates nothing.
func TestCombinedAllocs(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig()
	for _, sources := range [][]int{{1}, {0, 1, 2}} {
		if n := testing.AllocsPerRun(100, func() { _ = Combined(g, g.TopID, sources, cfg) }); n != 0 {
			t.Errorf("Combined over %d sources allocates %v times, want 0", len(sources), n)
		}
	}
}

// TestLocalIndicatorOrderFree: a local indicator has one order, its
// ascending targets, so nothing computed from it depends on map iteration
// or on the order its targets arrived in. With a map behind Local, MergedSum
// over a 3 906-entry local gave 26 to 37 distinct sums in 100 calls.
func TestLocalIndicatorOrderFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, entries = 5041, 3906
	gi := NewGlobal(n)
	for i := range gi.Values {
		gi.Values[i] = rng.Float64()
	}
	big := &Local{Source: 0}
	for _, tgt := range rng.Perm(n)[:entries] {
		big.Targets = append(big.Targets, tgt)
	}
	slices.Sort(big.Targets)
	for range big.Targets {
		big.Values = append(big.Values, rng.Float64())
	}
	want := math.Float64bits(gi.MergedSum(big))
	for i := 0; i < 100; i++ {
		if got := math.Float64bits(gi.MergedSum(big)); got != want {
			t.Fatalf("call %d: MergedSum = %x, first call %x", i, got, want)
		}
	}

	g, err := datasets.GenCube(1, datasets.CubeGenForNodes(300, 2)).Graph()
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]int, g.NumNodes())
	for i := range targets {
		targets[i] = i
	}
	cfg := DefaultConfig()
	var locals []*Local
	for _, src := range []int{g.TopID, 5, 17, 101} {
		l := ComputeLocal(g, src, targets, cfg)
		shuffled := slices.Clone(targets)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		s := ComputeLocal(g, src, shuffled, cfg)
		if !slices.Equal(l.Targets, s.Targets) || !slices.IsSorted(l.Targets) {
			t.Fatalf("source %d: targets %v over a shuffled list, %v in order", src, s.Targets, l.Targets)
		}
		for i := range l.Values {
			if math.Float64bits(l.Values[i]) != math.Float64bits(s.Values[i]) {
				t.Fatalf("source %d, target %d: %v over a shuffled list, %v in order", src, l.Targets[i], s.Values[i], l.Values[i])
			}
		}
		locals = append(locals, l)
	}

	fwd, rev := NewGlobal(g.NumNodes()), NewGlobal(g.NumNodes())
	for i := range locals {
		fwd.Merge(locals[i])
		rev.Merge(locals[len(locals)-1-i])
	}
	for tgt := range fwd.Values {
		if math.Float64bits(fwd.Values[tgt]) != math.Float64bits(rev.Values[tgt]) || fwd.Source[tgt] != rev.Source[tgt] {
			t.Fatalf("target %d: %v from %d merged forward, %v from %d merged in reverse",
				tgt, fwd.Values[tgt], fwd.Source[tgt], rev.Values[tgt], rev.Source[tgt])
		}
	}
}

// TestRebuildTieLowestSource: when two locals tie at a target, the rebuilt
// global names the lower source every time, not whichever the map yields
// first — the advisor's deletion ranking reads Global.Source.
func TestRebuildTieLowestSource(t *testing.T) {
	locals := map[int]*Local{
		7: {Source: 7, Targets: []int{2, 7}, Values: []float64{0.25, 0}},
		3: {Source: 3, Targets: []int{2, 3}, Values: []float64{0.25, 0}},
	}
	for i := 0; i < 50; i++ {
		if gi := Rebuild(8, locals); gi.Source[2] != 3 || gi.Values[2] != 0.25 {
			t.Fatalf("rebuild %d: target 2 = %v from %d, want 0.25 from 3", i, gi.Values[2], gi.Source[2])
		}
	}
}
