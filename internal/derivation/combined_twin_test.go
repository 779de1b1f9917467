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
