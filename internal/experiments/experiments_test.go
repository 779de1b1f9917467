package experiments

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"cubefc/internal/core"
	"cubefc/internal/hierarchical"
)

func TestLoadDataset(t *testing.T) {
	for _, name := range []string{"tourism", "sales", "energy", "gen1k", "gen10k"} {
		ds, err := LoadDataset(name, Quick)
		if err != nil {
			t.Fatalf("LoadDataset(%q): %v", name, err)
		}
		if len(ds.Base) == 0 {
			t.Fatalf("%s: empty data set", name)
		}
	}
	if _, err := LoadDataset("bogus", Quick); err == nil {
		t.Fatal("unknown data set should fail")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "t", Header: []string{"a", "b"}}
	tab.AddRow("1", "2")
	tab.Notes = append(tab.Notes, "n")
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== t ==", "a", "1", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in %q", want, out)
		}
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if r := pearson(x, x); math.Abs(r-1) > 1e-12 {
		t.Fatalf("self-correlation = %v", r)
	}
	y := []float64{4, 3, 2, 1}
	if r := pearson(x, y); math.Abs(r+1) > 1e-12 {
		t.Fatalf("anti-correlation = %v", r)
	}
	if !math.IsNaN(pearson([]float64{1}, []float64{1})) {
		t.Fatal("pearson of single point should be NaN")
	}
	if !math.IsNaN(pearson([]float64{1, 1}, []float64{1, 2})) {
		t.Fatal("pearson with zero variance should be NaN")
	}
}

// TestFig7TourismShape verifies the headline claim of the paper on the
// smallest data set: the advisor achieves the lowest error and uses far
// fewer models than the direct approach.
func TestFig7TourismShape(t *testing.T) {
	tab, err := Fig7("tourism", Quick)
	if err != nil {
		t.Fatal(err)
	}
	errs := map[string]float64{}
	models := map[string]int{}
	for _, row := range tab.Rows {
		e, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		m, err := strconv.Atoi(row[2])
		if err != nil {
			t.Fatal(err)
		}
		errs[row[0]] = e
		models[row[0]] = m
	}
	for _, ap := range []string{"Direct", "BottomUp", "TopDown", "Greedy", "Advisor"} {
		if _, ok := errs[ap]; !ok {
			t.Fatalf("missing approach %s", ap)
		}
	}
	if models["TopDown"] != 1 {
		t.Fatalf("top-down models = %d, want 1", models["TopDown"])
	}
	if models["Direct"] != 45 {
		t.Fatalf("direct models = %d, want 45", models["Direct"])
	}
	for _, ap := range []string{"Direct", "BottomUp", "TopDown", "Combine", "Greedy"} {
		if errs["Advisor"] > errs[ap]+1e-9 {
			t.Fatalf("advisor error %v worse than %s error %v", errs["Advisor"], ap, errs[ap])
		}
	}
	if models["Advisor"] >= models["Direct"] {
		t.Fatal("advisor should use fewer models than direct")
	}
}

// TestFig8aIndicatorCorrelation verifies that the indicator correlates
// strongly with the real derivation error (the validity claim of §VI-C).
// Fig. 8a runs no advisor and reads no clock, so r is the same on every run:
// 0.8838 on sales and 0.8225 on tourism.
func TestFig8aIndicatorCorrelation(t *testing.T) {
	tab, err := Fig8a(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		r, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if r < 0.8 {
			t.Fatalf("%s: indicator correlation %v too weak", row[0], r)
		}
	}
}

func TestFig8cDelaysScale(t *testing.T) {
	q := Fig8cDelays(Quick)
	p := Fig8cDelays(Paper)
	if q[len(q)-1] >= p[len(p)-1] {
		t.Fatal("paper-scale delays should exceed quick-scale delays")
	}
}

func TestFig9aSizes(t *testing.T) {
	q := Fig9aSizes(Quick)
	p := Fig9aSizes(Paper)
	if p[len(p)-1] != 100_000 {
		t.Fatal("paper scale must include 100k, per §VI-D")
	}
	if q[len(q)-1] > 10_000 {
		t.Fatal("quick scale too large for CI")
	}
}

func TestTableWriteCSV(t *testing.T) {
	tab := &Table{Title: "x", Header: []string{"a", "b"}}
	tab.AddRow("1", "2")
	tab.AddRow("3", "4")
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,2\n3,4\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
}

// TestOriginHeldOut: an engine opened on the advisor's configuration
// forecasts from the end of its data, not from the end of the advisor's
// training window. Held out one season, tourism's served forecasts score a
// mean SMAPE of 0.029; when Open left every model TestLen steps in the past
// they scored 0.081.
func TestOriginHeldOut(t *testing.T) {
	ds, err := LoadDataset("tourism", Quick)
	if err != nil {
		t.Fatal(err)
	}
	smape, err := HeldOut(ds, "Advisor", ds.Period, hierarchical.Options{},
		core.Options{Seed: Seed, FixedGamma: true, Gamma0: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("tourism, last season held out: served SMAPE %.4f", smape)
	if smape >= 0.04 {
		t.Fatalf("served SMAPE %.4f on the held-out season, want < 0.04", smape)
	}
}
