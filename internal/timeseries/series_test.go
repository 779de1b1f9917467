package timeseries

import (
	"math"
	"testing"
	"testing/quick"
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
	if !math.IsInf(s.Min(), 1) {
		t.Error("Min of empty series should be +Inf")
	}
	if !math.IsInf(s.Max(), -1) {
		t.Error("Max of empty series should be -Inf")
	}
	if s.Sum() != 0 {
		t.Error("Sum of empty series should be 0")
	}
}

func TestMinMax(t *testing.T) {
	s := New([]float64{3, -1, 7, 0}, 0)
	if s.Min() != -1 {
		t.Errorf("Min = %v, want -1", s.Min())
	}
	if s.Max() != 7 {
		t.Errorf("Max = %v, want 7", s.Max())
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

func TestSplitRatios(t *testing.T) {
	s := New(make([]float64, 10), 0)
	cases := []struct {
		ratio       float64
		train, test int
	}{
		{0.8, 8, 2},
		{0.5, 5, 5},
		{0, 0, 10},
		{1, 10, 0},
		{-1, 0, 10},  // clamped
		{1.5, 10, 0}, // clamped
	}
	for _, c := range cases {
		tr, te := s.Split(c.ratio)
		if tr.Len() != c.train || te.Len() != c.test {
			t.Errorf("Split(%v) = %d/%d, want %d/%d", c.ratio, tr.Len(), te.Len(), c.train, c.test)
		}
	}
}

func TestAdd(t *testing.T) {
	a := New([]float64{1, 2, 3}, 4)
	b := New([]float64{10, 20, 30}, 4)
	sum, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{11, 22, 33}
	for i, v := range sum.Values {
		if v != want[i] {
			t.Fatalf("Add = %v, want %v", sum.Values, want)
		}
	}
	if sum.Period != 4 {
		t.Error("Add lost period")
	}
}

func TestAddErrors(t *testing.T) {
	if _, err := Add(); err == nil {
		t.Error("Add() with no series should fail")
	}
	a := New([]float64{1, 2}, 0)
	b := New([]float64{1}, 0)
	if _, err := Add(a, b); err == nil {
		t.Error("Add with length mismatch should fail")
	}
}

func TestScale(t *testing.T) {
	s := New([]float64{1, 2}, 3)
	sc := s.Scale(2.5)
	if sc.Values[0] != 2.5 || sc.Values[1] != 5 || sc.Period != 3 {
		t.Fatalf("Scale = %+v", sc)
	}
	if s.Values[0] != 1 {
		t.Error("Scale modified the receiver")
	}
}

func TestAddPropertySumEqualsSumOfSums(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			// Keep magnitudes sane to avoid float overflow noise.
			vals[i] = math.Mod(v, 1e6)
		}
		a := New(vals, 1)
		b := a.Scale(2)
		sum, err := Add(a, b)
		if err != nil {
			return false
		}
		return almostEq(sum.Sum(), a.Sum()+b.Sum(), 1e-6*(1+math.Abs(a.Sum())))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
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
