package datasets

import (
	"math"
	"math/rand"
	"testing"
)

func TestTourismShape(t *testing.T) {
	ds := Tourism(1)
	if len(ds.Base) != 32 {
		t.Fatalf("tourism base series = %d, want 32 (4 purposes × 8 states)", len(ds.Base))
	}
	if ds.Period != 4 {
		t.Fatalf("tourism period = %d, want 4 (quarterly)", ds.Period)
	}
	for _, b := range ds.Base {
		if b.Series.Len() != 32 {
			t.Fatalf("tourism series length = %d, want 32 (2004-2011 quarterly)", b.Series.Len())
		}
	}
	g, err := ds.Graph()
	if err != nil {
		t.Fatal(err)
	}
	// (4 purposes + ALL) × (8 states + ALL) = 45 nodes, as in the paper's
	// description of the data set.
	if g.NumNodes() != 45 {
		t.Fatalf("tourism graph nodes = %d, want 45", g.NumNodes())
	}
}

func TestSalesShape(t *testing.T) {
	ds := Sales(1)
	if len(ds.Base) != 27 {
		t.Fatalf("sales base series = %d, want 27", len(ds.Base))
	}
	if ds.Period != 12 {
		t.Fatalf("sales period = %d, want 12 (monthly)", ds.Period)
	}
	for _, b := range ds.Base {
		if b.Series.Len() != 72 {
			t.Fatalf("sales series length = %d, want 72 (2004-2009 monthly)", b.Series.Len())
		}
	}
}

func TestEnergyShape(t *testing.T) {
	ds := Energy(1, EnergyOptions{})
	if len(ds.Base) != 86 {
		t.Fatalf("energy base series = %d, want 86 customers", len(ds.Base))
	}
	if ds.Period != 24 {
		t.Fatalf("energy period = %d, want 24 (hourly/daily season)", ds.Period)
	}
	if ds.Base[0].Series.Len() != 240*24 {
		t.Fatalf("energy length = %d, want %d", ds.Base[0].Series.Len(), 240*24)
	}
	// Customers are grouped into districts via the hierarchy.
	if len(ds.Dims) != 1 || len(ds.Dims[0].Levels) != 2 {
		t.Fatal("energy should have a customer → district hierarchy")
	}
}

func TestEnergyScaled(t *testing.T) {
	ds := Energy(1, EnergyOptions{Customers: 10, Days: 5})
	if len(ds.Base) != 10 || ds.Base[0].Series.Len() != 120 {
		t.Fatalf("scaled energy shape wrong: %d series × %d", len(ds.Base), ds.Base[0].Series.Len())
	}
}

func TestEnergyBaseNoisierThanAggregate(t *testing.T) {
	// The paper's key property: base data is noisy, aggregates are
	// smooth. Compare the coefficient of variation of a base series with
	// the top aggregate.
	ds := Energy(1, EnergyOptions{Customers: 20, Days: 20})
	g, err := ds.Graph()
	if err != nil {
		t.Fatal(err)
	}
	base := g.Node(g.BaseIDs[0]).Series
	top := g.Node(g.TopID).Series
	cvBase := base.Std() / base.Mean()
	cvTop := top.Std() / top.Mean()
	if cvTop >= cvBase {
		t.Fatalf("aggregate CV %v should be below base CV %v", cvTop, cvBase)
	}
}

func TestGenLevelsRule(t *testing.T) {
	cases := map[int]int{
		10: 3, 999: 3,
		1_000: 4, 9_999: 4,
		10_000: 5, 99_999: 5,
		100_000: 6, 500_000: 6,
	}
	for x, want := range cases {
		if got := GenLevels(x); got != want {
			t.Errorf("GenLevels(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestGenXShape(t *testing.T) {
	ds := GenX(1, 100)
	if len(ds.Base) != 100 {
		t.Fatalf("genx base = %d", len(ds.Base))
	}
	g, err := ds.Graph()
	if err != nil {
		t.Fatal(err)
	}
	// 3 levels: base (100) + one named level (~10) + ALL.
	if len(ds.Dims[0].Levels) != 2 {
		t.Fatalf("gen100 named levels = %d, want 2", len(ds.Dims[0].Levels))
	}
	if g.NumNodes() <= 100 {
		t.Fatal("graph must contain aggregation levels")
	}
	if g.NumNodes() > 100+20+1 {
		t.Fatalf("graph too large: %d", g.NumNodes())
	}
}

func TestGenXLevelsGrow(t *testing.T) {
	for _, x := range []int{50, 1_500, 12_000} {
		ds := GenX(1, x)
		want := GenLevels(x) - 1
		if len(ds.Dims[0].Levels) != want {
			t.Fatalf("gen%d named levels = %d, want %d", x, len(ds.Dims[0].Levels), want)
		}
	}
}

func TestGenXDeterministicPerSeed(t *testing.T) {
	a := GenX(7, 50)
	b := GenX(7, 50)
	for i := range a.Base {
		for j := range a.Base[i].Series.Values {
			if a.Base[i].Series.Values[j] != b.Base[i].Series.Values[j] {
				t.Fatal("GenX not deterministic per seed")
			}
		}
	}
	c := GenX(8, 50)
	same := true
	for j := range a.Base[0].Series.Values {
		if a.Base[0].Series.Values[j] != c.Base[0].Series.Values[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGenXNonNegative(t *testing.T) {
	ds := GenX(3, 200)
	for _, b := range ds.Base {
		for _, v := range b.Series.Values {
			if v < 0 {
				t.Fatal("generated measure below zero")
			}
		}
	}
}

func TestSARIMAProcessLengthAndDeterminism(t *testing.T) {
	p := &SARIMAProcess{AR: []float64{0.5}, Period: 12, Sigma: 1, Level: 10}
	a := p.Generate(rand.New(rand.NewSource(1)), 40)
	b := p.Generate(rand.New(rand.NewSource(1)), 40)
	if len(a) != 40 {
		t.Fatalf("length = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SARIMA generation not deterministic")
		}
	}
}

func TestSARIMASeasonalIntegrationCreatesSeasonality(t *testing.T) {
	p := &SARIMAProcess{SMA: []float64{-0.5}, SD: 1, Period: 6, Sigma: 1, Level: 100}
	vals := p.Generate(rand.New(rand.NewSource(2)), 120)
	// Seasonal ACF at the period should dominate neighboring lags.
	mean := 0.0
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	acf := func(lag int) float64 {
		var num, den float64
		for i := range vals {
			den += (vals[i] - mean) * (vals[i] - mean)
			if i+lag < len(vals) {
				num += (vals[i] - mean) * (vals[i+lag] - mean)
			}
		}
		return num / den
	}
	if acf(6) <= acf(4) {
		t.Fatalf("seasonal ACF(6)=%v should exceed ACF(4)=%v", acf(6), acf(4))
	}
}

func TestExpandSeasonalAR(t *testing.T) {
	// (1-0.5B)(1-0.3B^4): combined AR coefficients at lags 1,4,5.
	got := expandSeasonal([]float64{0.5}, []float64{0.3}, 4, false)
	if math.Abs(got[0]-0.5) > 1e-12 || math.Abs(got[3]-0.3) > 1e-12 || math.Abs(got[4]+0.15) > 1e-12 {
		t.Fatalf("expandSeasonal AR = %v", got)
	}
}

func TestTourismSiblingCorrelation(t *testing.T) {
	// Same-purpose series across states must share their seasonal shape
	// (this is what the advisor exploits).
	ds := Tourism(1)
	a := ds.Base[0].Series.Values // holiday, NSW
	b := ds.Base[1].Series.Values // holiday, VIC
	var sab float64
	var saa, sbb float64
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= float64(len(a))
	mb /= float64(len(b))
	for i := range a {
		sab += (a[i] - ma) * (b[i] - mb)
		saa += (a[i] - ma) * (a[i] - ma)
		sbb += (b[i] - mb) * (b[i] - mb)
	}
	if r := sab / math.Sqrt(saa*sbb); r < 0.5 {
		t.Fatalf("sibling correlation = %v, want strong", r)
	}
}
