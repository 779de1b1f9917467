package timeseries

import (
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestSumMeanVariance(t *testing.T) {
	s := New([]float64{1, 2, 3, 4}, 0)
	if got := s.Sum(); got != 10 {
		t.Fatalf("Sum = %v, want 10", got)
	}
	if got := s.Mean(); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if got := s.Variance(); !almostEq(got, 1.25, 1e-12) {
		t.Fatalf("Variance = %v, want 1.25", got)
	}
	if got := s.Std(); !almostEq(got, math.Sqrt(1.25), 1e-12) {
		t.Fatalf("Std = %v", got)
	}
}

func TestEmptySeriesStats(t *testing.T) {
	s := New(nil, 0)
	if !math.IsNaN(s.Mean()) {
		t.Error("Mean of empty series should be NaN")
	}
	if !math.IsNaN(s.Variance()) {
		t.Error("Variance of empty series should be NaN")
	}
	if s.Sum() != 0 {
		t.Error("Sum of empty series should be 0")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New([]float64{1, 2, 3}, 4)
	c := s.Clone()
	c.Values[0] = 99
	if s.Values[0] != 1 {
		t.Fatal("Clone shares backing array")
	}
	if c.Period != 4 {
		t.Fatal("Clone lost period")
	}
}

func TestAppendAndSlice(t *testing.T) {
	s := New([]float64{1, 2}, 2)
	s.Append(3)
	if s.Len() != 3 || s.Values[2] != 3 {
		t.Fatalf("Append failed: %v", s.Values)
	}
	sl := s.Slice(1, 3)
	if sl.Len() != 2 || sl.Values[0] != 2 || sl.Period != 2 {
		t.Fatalf("Slice = %+v", sl)
	}
}

func TestSeasonalProfile(t *testing.T) {
	// Perfectly seasonal data: profile recovers the pattern deviations.
	vals := make([]float64, 24)
	pattern := []float64{10, 20, 30}
	for i := range vals {
		vals[i] = pattern[i%3]
	}
	s := New(vals, 3)
	p := s.SeasonalProfile(3)
	if p == nil {
		t.Fatal("profile should exist")
	}
	want := []float64{-10, 0, 10} // deviations from mean 20
	for i := range want {
		if !almostEq(p[i], want[i], 1e-9) {
			t.Fatalf("profile = %v, want %v", p, want)
		}
	}
	// Deseasonalizing flattens the series.
	flat := s.Deseasonalize(p)
	for _, v := range flat.Values {
		if !almostEq(v, 20, 1e-9) {
			t.Fatalf("deseasonalized = %v", flat.Values)
		}
	}
}

func TestSeasonalProfileDegenerate(t *testing.T) {
	s := New([]float64{1, 2, 3}, 4)
	if s.SeasonalProfile(4) != nil {
		t.Fatal("too-short series should have no profile")
	}
	if s.SeasonalProfile(1) != nil {
		t.Fatal("period < 2 should have no profile")
	}
	// Deseasonalize with empty profile is a clone.
	c := s.Deseasonalize(nil)
	if c.Values[0] != 1 || &c.Values[0] == &s.Values[0] {
		t.Fatal("empty-profile deseasonalize should clone")
	}
}
