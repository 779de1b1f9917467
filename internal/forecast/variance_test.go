package forecast

import (
	"math"
	"testing"

	"cubefc/internal/timeseries"
)

func TestNaiveVarianceScale(t *testing.T) {
	m := NewNaive()
	if got := m.VarianceScale(4); math.Abs(got-2) > 1e-12 {
		t.Fatalf("naive scale(4) = %v, want 2 (sqrt(4))", got)
	}
}

func TestSESVarianceScale(t *testing.T) {
	m := &SES{Alpha: 0.5}
	// Var(3) = 1 + 2·0.25 = 1.5.
	if got := m.VarianceScale(3); math.Abs(got-math.Sqrt(1.5)) > 1e-12 {
		t.Fatalf("SES scale(3) = %v", got)
	}
	if m.VarianceScale(1) != 1 {
		t.Fatal("scale(1) must be 1")
	}
	// α → 0: forecasts barely move, variance nearly flat.
	flat := &SES{Alpha: 0.01}
	if flat.VarianceScale(100) > 1.1 {
		t.Fatalf("low-alpha SES should have nearly flat variance, got %v", flat.VarianceScale(100))
	}
}

func TestHoltVarianceScaleGrowsFasterThanSES(t *testing.T) {
	ses := &SES{Alpha: 0.4}
	holt := &Holt{Alpha: 0.4, Beta: 0.3}
	if holt.VarianceScale(10) <= ses.VarianceScale(10) {
		t.Fatal("trend uncertainty must widen intervals beyond SES")
	}
}

func TestHoltDampedVarianceBelowUndamped(t *testing.T) {
	und := &Holt{Alpha: 0.4, Beta: 0.3, Phi: 1}
	dam := &Holt{Alpha: 0.4, Beta: 0.3, Phi: 0.9, Damped: true}
	if dam.VarianceScale(20) >= und.VarianceScale(20) {
		t.Fatal("damped trend must have narrower long-horizon intervals")
	}
}

func TestHoltWintersVarianceSeasonBump(t *testing.T) {
	m := &HoltWinters{Period: 4, Alpha: 0.3, Beta: 0.1, Gamma: 0.2}
	// The seasonal term adds γ at multiples of the period, so the scale
	// must strictly increase across a period boundary.
	if m.VarianceScale(5) <= m.VarianceScale(4) {
		t.Fatal("variance must grow across the seasonal lag")
	}
}

func TestVarianceScaleOfFallback(t *testing.T) {
	// A model without the interface gets sqrt(h).
	var m Model = &failsVariance{}
	if got := VarianceScaleOf(m, 9); math.Abs(got-3) > 1e-12 {
		t.Fatalf("fallback scale = %v, want 3", got)
	}
	if got := VarianceScaleOf(m, 0); got != 1 {
		t.Fatalf("h<1 must clamp to 1, got %v", got)
	}
}

// failsVariance implements Model but not HorizonVariance.
type failsVariance struct{}

func (f *failsVariance) Name() string                 { return "x" }
func (f *failsVariance) Fit(*timeseries.Series) error { return nil }
func (f *failsVariance) Forecast(h int) []float64     { return make([]float64, h) }
func (f *failsVariance) Update(float64)               {}
func (f *failsVariance) Fitted() bool                 { return true }
