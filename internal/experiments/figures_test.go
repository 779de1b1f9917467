package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// parseDur parses a table cell produced by time.Duration.String().
func parseDur(t *testing.T, cell string) time.Duration {
	t.Helper()
	d, err := time.ParseDuration(cell)
	if err != nil {
		t.Fatalf("bad duration cell %q: %v", cell, err)
	}
	return d
}

func parseF(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("bad float cell %q: %v", cell, err)
	}
	return v
}

// TestFig8bShape checks the |I| sweep: errors stay in range and the first
// real data set does not get worse with a full indicator vs the smallest.
func TestFig8bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure experiment")
	}
	tab, err := Fig8b(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(Fig8Datasets) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		first := parseF(t, row[1])
		last := parseF(t, row[len(row)-1])
		if first < 0 || first > 1 || last < 0 || last > 1 {
			t.Fatalf("%s: errors out of range: %v..%v", row[0], first, last)
		}
		if row[0] == "tourism" && last > first+0.005 {
			t.Fatalf("tourism should not degrade with larger |I|: %v -> %v", first, last)
		}
	}
}

// TestFig8cShape checks the runtime experiment: linear approaches grow with
// the delay, and the advisor stays below Greedy at the largest delay.
func TestFig8cShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure experiment")
	}
	tab, err := Fig8c(Quick)
	if err != nil {
		t.Fatal(err)
	}
	times := map[string][]time.Duration{}
	for _, row := range tab.Rows {
		for _, cell := range row[1:] {
			times[row[0]] = append(times[row[0]], parseDur(t, cell))
		}
	}
	last := len(times["Greedy"]) - 1
	if times["Greedy"][last] <= times["Greedy"][0] {
		t.Fatal("greedy runtime should grow with model creation time")
	}
	if times["Advisor"][last] >= times["Greedy"][last] {
		t.Fatalf("advisor (%v) should beat greedy (%v) at the largest delay",
			times["Advisor"][last], times["Greedy"][last])
	}
	if times["TopDown"][last] >= times["Advisor"][last] {
		t.Fatal("top-down (1 model) must be the cheapest")
	}
}

// TestFig8efShape checks the α sweep: error non-increasing, model fraction
// non-decreasing with α for every data set.
func TestFig8efShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure experiment")
	}
	e, err := Fig8e(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range e.Rows {
		prev := 2.0
		for _, cell := range row[1:] {
			v := parseF(t, cell)
			if v > prev+1e-9 {
				t.Fatalf("%s: error increased along alpha: %v after %v", row[0], v, prev)
			}
			prev = v
		}
	}
	f, err := Fig8f(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f.Rows {
		prev := -1.0
		for _, cell := range row[1:] {
			v := parseF(t, cell)
			if v < prev-1e-9 {
				t.Fatalf("%s: model fraction decreased along alpha", row[0])
			}
			if v < 0 || v > 1 {
				t.Fatalf("%s: fraction %v out of range", row[0], v)
			}
			prev = v
		}
	}
}

// TestFig9aShape checks the scalability experiment orderings at the
// largest size: TopDown < Advisor < BottomUp <= Direct < Greedy-ish.
func TestFig9aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure experiment")
	}
	tab, err := Fig9a(Quick)
	if err != nil {
		t.Fatal(err)
	}
	at := map[string]time.Duration{}
	for _, row := range tab.Rows {
		cell := row[len(row)-1]
		if cell == "-" {
			continue
		}
		at[row[0]] = parseDur(t, cell)
	}
	if !(at["TopDown"] < at["Advisor"] && at["Advisor"] < at["BottomUp"]) {
		t.Fatalf("runtime ordering broken: td=%v advisor=%v bu=%v",
			at["TopDown"], at["Advisor"], at["BottomUp"])
	}
	if at["Greedy"] < at["BottomUp"] {
		t.Fatalf("greedy (%v) should not beat bottom-up (%v)", at["Greedy"], at["BottomUp"])
	}
}

// TestFig9bShape checks the query/insert experiment: latency decreases with
// the ratio for both configurations.
func TestFig9bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure experiment")
	}
	tab, err := Fig9b(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		first := parseDur(t, row[1])
		last := parseDur(t, row[len(row)-1])
		if last >= first {
			t.Fatalf("%s: per-query cost should fall with the ratio: %v -> %v", row[0], first, last)
		}
	}
}

// TestAblationsShape checks the ablation table covers every variant for
// every data set with in-range numbers.
func TestAblationsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure experiment")
	}
	tab, err := Ablations(Quick)
	if err != nil {
		t.Fatal(err)
	}
	const variants = 7
	if len(tab.Rows) != 4*variants {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), 4*variants)
	}
	for _, row := range tab.Rows {
		e := parseF(t, row[2])
		if e < 0 || e > 1 {
			t.Fatalf("%s/%s: error %v", row[0], row[1], e)
		}
		if m, _ := strconv.Atoi(row[3]); m < 1 {
			t.Fatalf("%s/%s: no models", row[0], row[1])
		}
	}
}

// TestFig7HeldOut: Fig. 7's held-out column is finite for every approach,
// and the approaches that do not select on the test window — Direct and
// BottomUp — score within 10 % of their in-sample error held out.
func TestFig7HeldOut(t *testing.T) {
	for _, name := range []string{"tourism", "sales"} {
		tab, err := Fig7(name, Quick)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tab.Rows {
			in, err := strconv.ParseFloat(row[1], 64)
			if err != nil {
				t.Fatal(err)
			}
			held, err := strconv.ParseFloat(row[2], 64)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(held) || math.IsInf(held, 0) {
				t.Fatalf("%s %s: held-out error %v", name, row[0], held)
			}
			if move := math.Abs(held-in) / in; (row[0] == "Direct" || row[0] == "BottomUp") && move > 0.10 {
				t.Errorf("%s %s: in-sample %v, held out %v — moved %.1f %%", name, row[0], in, held, 100*move)
			}
		}
	}
}

// TestFig7SalesEnergyRun smoke-runs the remaining Fig7 data sets (tourism
// is covered by TestFig7TourismShape).
func TestFig7SalesEnergyRun(t *testing.T) {
	if testing.Short() {
		t.Skip("figure experiment")
	}
	for _, name := range []string{"sales", "energy"} {
		tab, err := Fig7(name, Quick)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) != 6 {
			t.Fatalf("%s rows = %d", name, len(tab.Rows))
		}
		if !strings.Contains(tab.Title, name) {
			t.Fatal("title missing data set")
		}
	}
}
