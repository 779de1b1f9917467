package forecast

import (
	"errors"
	"math"
	"testing"

	"cubefc/internal/timeseries"
)

func TestThetaLinearTrend(t *testing.T) {
	vals := make([]float64, 40)
	for i := range vals {
		vals[i] = 5 + 2*float64(i)
	}
	m := NewTheta(1)
	if err := m.Fit(timeseries.New(vals, 1)); err != nil {
		t.Fatal(err)
	}
	fc := forecastN(m, 3)
	for i, want := range []float64{5 + 2*40, 5 + 2*41, 5 + 2*42} {
		// Theta averages trend and SES level, so it under-extrapolates a
		// pure trend slightly; allow a modest band.
		if math.Abs(fc[i]-want) > 6 {
			t.Fatalf("theta forecast = %v, want ≈%v at h=%d", fc, want, i)
		}
	}
}

func TestThetaSeasonal(t *testing.T) {
	vals := make([]float64, 48)
	for i := range vals {
		vals[i] = 100 + 10*math.Sin(2*math.Pi*float64(i%4)/4)
	}
	m := NewTheta(4)
	if err := m.Fit(timeseries.New(vals, 4)); err != nil {
		t.Fatal(err)
	}
	fc := forecastN(m, 4)
	for i := 0; i < 4; i++ {
		want := 100 + 10*math.Sin(2*math.Pi*float64((48+i)%4)/4)
		if math.Abs(fc[i]-want) > 3 {
			t.Fatalf("theta seasonal forecast = %v, want ≈%v at h=%d", fc, want, i)
		}
	}
}

func TestThetaTooShort(t *testing.T) {
	if err := NewTheta(1).Fit(timeseries.New([]float64{1, 2, 3}, 1)); !errors.Is(err, ErrTooShort) {
		t.Fatalf("err = %v, want ErrTooShort", err)
	}
}

func TestThetaUpdateAdvancesState(t *testing.T) {
	vals := make([]float64, 30)
	for i := range vals {
		vals[i] = float64(10 + i)
	}
	m := NewTheta(1)
	if err := m.Fit(timeseries.New(vals, 1)); err != nil {
		t.Fatal(err)
	}
	nBefore := m.N
	m.Update(100)
	if m.N != nBefore+1 {
		t.Fatal("Update must advance the time index")
	}
}

func TestThetaResidualStdPositive(t *testing.T) {
	s := seasonalSeries(48, 4, 100, 0.5, 10, 1, 9)
	m := NewTheta(4)
	if err := m.Fit(s); err != nil {
		t.Fatal(err)
	}
	if m.ResidualStd() <= 0 {
		t.Fatal("residual std must be positive on noisy data")
	}
}
