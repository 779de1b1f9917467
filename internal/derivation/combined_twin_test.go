package derivation_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cubefc/internal/derivation"
	"cubefc/internal/indicator"
)

// oracleCombined is indicator.Combined over the materializing kernels.
func oracleCombined(src derivation.SeriesSource, target int, sources []int, cfg indicator.Config) float64 {
	histErr, err := derivation.OracleHistoricalError(src, target, sources, cfg.HistoryLen)
	if err != nil || math.IsNaN(histErr) {
		return indicator.Worst
	}
	v := histErr
	if cfg.StabilityWeight > 0 {
		stab := derivation.OracleWeightStability(src, target, sources, cfg.HistoryLen)
		if math.IsInf(stab, 1) {
			return indicator.Worst
		}
		v = histErr * (1 + cfg.StabilityWeight*stab/(1+stab))
	}
	if v > indicator.Worst {
		v = indicator.Worst
	}
	if v < 0 {
		v = 0
	}
	return v
}

// TestKernelTwinCombined: the indicator cell the advisor ranks by is the
// same bits over the streaming kernels as over the materializing ones. It
// lives here, not in package indicator, because the oracles do.
func TestKernelTwinCombined(t *testing.T) {
	check := func(c derivation.KernelCase, stability bool) bool {
		cfg := indicator.Config{HistoryLen: c.HistoryLen}
		if stability {
			cfg.StabilityWeight = 0.5
		}
		got, want := indicator.Combined(c.Series, 0, c.Sources, cfg), oracleCombined(c.Series, 0, c.Sources, cfg)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Combined = %v; oracle %v (%d sources, %d observations, historyLen %d)", got, want, len(c.Sources), len(c.Series[0]), c.HistoryLen)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Fatal(err)
	}
}

// TestHistoricalIndicatorsEdges runs the kernel's edge cases by name. In
// each, node 0 is the target and the rest the sources, padded with all-zero
// sources (which change no sum) up to eight. Both outputs must match the
// materializing kernels bit for bit, the indicator cell its oracle with the
// stability term on and off, and the values what the case is about.
func TestHistoricalIndicatorsEdges(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name       string
		series     derivation.SliceSource
		historyLen int
		// wantErr and wantStab are the kernel's outputs; cell and ablated the
		// indicator cell at StabilityWeight 0.5 and 0.
		wantErr, wantStab, cell, ablated float64
	}{
		// Step 1's sources sum to zero: its weight is skipped, and the other
		// three are all 2.
		{"zero-sum steps are skipped", derivation.SliceSource{{4, 9, 6, 8}, {1, 5, 3, 4}, {1, -5, 0, 0}}, 0,
			0.4, 0, 0.4, 0.4},
		// One usable step: the stability is +Inf, which makes the cell Worst
		// only while the stability term counts.
		{"fewer than two usable steps", derivation.SliceSource{{1, 2, 3}, {0, 5, 0}}, 0,
			2.5 / 3, inf, 1, 2.5 / 3},
		{"zero mean weight", derivation.SliceSource{{2, -4}, {1, 2}}, 0,
			0.75, inf, 1, 0.75},
		{"historyLen 0 is the whole history", derivation.SliceSource{{2, 4, 6}, {1, 2, 3}}, 0,
			0, 0, 0, 0},
		{"historyLen -1 is the whole history", derivation.SliceSource{{2, 4, 6}, {1, 2, 3}}, -1,
			0, 0, 0, 0},
		{"historyLen beyond the series is the whole history", derivation.SliceSource{{2, 4, 6}, {1, 2, 3}}, 9,
			0, 0, 0, 0},
		{"historyLen inside the series", derivation.SliceSource{{2, 4, 7}, {1, 2, 3}}, 2,
			0, 0, 0, 0},
		// No history at all: no weight, so a NaN error and a Worst cell.
		{"empty history", derivation.SliceSource{{}, {}}, 0,
			nan, inf, 1, 1},
	} {
		series := append(derivation.SliceSource(nil), c.series...)
		for len(series) <= 8 {
			sources := make([]int, len(series)-1)
			for i := range sources {
				sources[i] = i + 1
			}
			histErr, stab, err := derivation.HistoricalIndicators(series, 0, sources, c.historyLen)
			oracleErr, oracleE := derivation.OracleHistoricalError(series, 0, sources, c.historyLen)
			oracleStab := derivation.OracleWeightStability(series, 0, sources, c.historyLen)
			if !sameBits(histErr, oracleErr) || !sameBits(stab, oracleStab) || (err == nil) != (oracleE == nil) {
				t.Fatalf("%s, %d sources: kernel %v, %v, %v; oracles %v, %v, %v", c.name, len(sources), histErr, stab, err, oracleErr, oracleStab, oracleE)
			}
			if !near(histErr, c.wantErr) || !sameBits(stab, c.wantStab) {
				t.Fatalf("%s, %d sources: kernel %v, %v; want %v, %v", c.name, len(sources), histErr, stab, c.wantErr, c.wantStab)
			}
			for _, w := range []struct{ weight, want float64 }{{0.5, c.cell}, {0, c.ablated}} {
				cfg := indicator.Config{StabilityWeight: w.weight, HistoryLen: c.historyLen}
				got := indicator.Combined(series, 0, sources, cfg)
				if want := oracleCombined(series, 0, sources, cfg); !sameBits(got, want) || !near(got, w.want) {
					t.Fatalf("%s, %d sources, StabilityWeight %v: Combined = %v; oracle %v, want %v", c.name, len(sources), w.weight, got, want, w.want)
				}
			}
			series = append(series, make([]float64, len(series[0])))
		}
	}
}

// sameBits is bit equality with every NaN equal to every other.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// near is equality to 1e-12, infinities and NaNs included.
func near(a, b float64) bool {
	return sameBits(a, b) || math.Abs(a-b) < 1e-12
}
