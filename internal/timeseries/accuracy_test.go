package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSMAPEPerfectForecast(t *testing.T) {
	a := []float64{1, 2, 3}
	if got := SMAPE(a, a); got != 0 {
		t.Fatalf("SMAPE of perfect forecast = %v, want 0", got)
	}
}

func TestSMAPEKnownValue(t *testing.T) {
	// |10-30|/(10+30) = 0.5 for the single step.
	if got := SMAPE([]float64{10}, []float64{30}); !almostEq(got, 0.5, 1e-12) {
		t.Fatalf("SMAPE = %v, want 0.5", got)
	}
}

func TestSMAPEWorstCase(t *testing.T) {
	// Zero actual vs non-zero forecast gives the maximum per-step error 1.
	if got := SMAPE([]float64{0, 0}, []float64{5, 7}); !almostEq(got, 1, 1e-12) {
		t.Fatalf("SMAPE = %v, want 1", got)
	}
}

func TestSMAPEBothZero(t *testing.T) {
	// Both zero counts as a perfect step.
	if got := SMAPE([]float64{0, 10}, []float64{0, 10}); got != 0 {
		t.Fatalf("SMAPE = %v, want 0", got)
	}
}

func TestSMAPEEmpty(t *testing.T) {
	if got := SMAPE(nil, nil); !math.IsNaN(got) {
		t.Fatalf("SMAPE of empty input = %v, want NaN", got)
	}
}

func TestSMAPERangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		n := 1 + rng.Intn(50)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.Float64() * 100
			b[i] = rng.Float64() * 100
		}
		s := SMAPE(a, b)
		return s >= 0 && s <= 1
	}
	for i := 0; i < 200; i++ {
		if !f() {
			t.Fatal("SMAPE left [0,1] on non-negative data")
		}
	}
}

// TestSMAPENegativeSeries pins the absolute-value denominator: a plain
// (x_t + x̂_t) sum would cancel to zero for opposite-sign pairs and go
// negative for negative series, pushing SMAPE out of [0, 1].
func TestSMAPENegativeSeries(t *testing.T) {
	cases := []struct {
		actual, forecast []float64
		want             float64
	}{
		// Opposite signs: |-10-10| / (|-10|+|10|) = 1, the worst case;
		// the paper's literal denominator would be 0.
		{[]float64{-10}, []float64{10}, 1},
		// Both negative, exact: perfect forecast stays 0.
		{[]float64{-5}, []float64{-5}, 0},
		// Both negative: |-10-(-30)| / (10+30) = 0.5 — mirrors the
		// positive-series known value; the literal denominator -40 would
		// yield -0.5.
		{[]float64{-10}, []float64{-30}, 0.5},
		// Mixed-sign series average per-step ratios, staying in range.
		{[]float64{-10, 10}, []float64{-30, 30}, 0.5},
	}
	for _, c := range cases {
		if got := SMAPE(c.actual, c.forecast); !almostEq(got, c.want, 1e-12) {
			t.Errorf("SMAPE(%v, %v) = %v, want %v", c.actual, c.forecast, got, c.want)
		}
	}
	// Range property must extend to arbitrary-sign data.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(50)
		a := make([]float64, n)
		b := make([]float64, n)
		for j := range a {
			a[j] = (rng.Float64() - 0.5) * 200
			b[j] = (rng.Float64() - 0.5) * 200
		}
		if s := SMAPE(a, b); s < 0 || s > 1 {
			t.Fatalf("SMAPE left [0,1] on signed data: %v", s)
		}
	}
}

func TestSMAPESymmetryProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		x, y := float64(a)+1, float64(b)+1
		return almostEq(SMAPE([]float64{x}, []float64{y}), SMAPE([]float64{y}, []float64{x}), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMismatchedLengthsUseShorter(t *testing.T) {
	// Only the common prefix is compared.
	if got := SMAPE([]float64{1, 2, 3}, []float64{1}); got != 0 {
		t.Fatalf("SMAPE over shorter prefix = %v, want 0", got)
	}
}
