// Package timeseries provides the time-series substrate used throughout
// cubefc: the Series type, descriptive statistics, seasonal profiles and
// the forecast-accuracy measures of Section II-D of the paper (most notably
// SMAPE, eq. 4).
package timeseries

import "math"

// Series is an equidistant time series. Values are ordered by time; the
// absolute timestamps are irrelevant to the advisor, only the ordering and
// the seasonal period matter. Period is the length of one season (e.g. 4
// for quarterly data with yearly seasonality, 24 for hourly data with daily
// seasonality); 0 or 1 means non-seasonal.
type Series struct {
	Values []float64
	Period int
}

// New returns a Series over values with the given seasonal period.
// The slice is used directly (not copied).
func New(values []float64, period int) *Series {
	return &Series{Values: values, Period: period}
}

// Len returns the number of observations.
func (s *Series) Len() int { return len(s.Values) }

// Clone returns a deep copy of the series.
func (s *Series) Clone() *Series {
	v := make([]float64, len(s.Values))
	copy(v, s.Values)
	return &Series{Values: v, Period: s.Period}
}

// Append adds a new observation at the end of the series.
func (s *Series) Append(x float64) { s.Values = append(s.Values, x) }

// Slice returns a view [from, to) of the series sharing the same period.
func (s *Series) Slice(from, to int) *Series {
	return &Series{Values: s.Values[from:to], Period: s.Period}
}

// Sum returns the sum over all observations. This is the history sum h_s
// used for derivation-weight calculation (eq. 2 and 3 of the paper).
func (s *Series) Sum() float64 {
	var t float64
	for _, v := range s.Values {
		t += v
	}
	return t
}

// Mean returns the arithmetic mean of the series (NaN for empty series).
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return math.NaN()
	}
	return s.Sum() / float64(len(s.Values))
}

// Variance returns the population variance of the series.
func (s *Series) Variance() float64 {
	n := len(s.Values)
	if n == 0 {
		return math.NaN()
	}
	m := s.Mean()
	var acc float64
	for _, v := range s.Values {
		d := v - m
		acc += d * d
	}
	return acc / float64(n)
}

// Std returns the population standard deviation.
func (s *Series) Std() float64 { return math.Sqrt(s.Variance()) }

// SeasonalProfile estimates an additive seasonal profile: the mean
// deviation from the series mean per seasonal phase. It returns nil when
// period < 2 or fewer than two full seasons are available.
func (s *Series) SeasonalProfile(period int) []float64 {
	n := len(s.Values)
	if period < 2 || n < 2*period {
		return nil
	}
	mean := s.Mean()
	profile := make([]float64, period)
	counts := make([]int, period)
	for i, v := range s.Values {
		profile[i%period] += v - mean
		counts[i%period]++
	}
	for i := range profile {
		profile[i] /= float64(counts[i])
	}
	return profile
}

// Deseasonalize returns a copy of the series with the given additive
// profile removed (phase-aligned from index 0).
func (s *Series) Deseasonalize(profile []float64) *Series {
	if len(profile) == 0 {
		return s.Clone()
	}
	out := make([]float64, len(s.Values))
	for i, v := range s.Values {
		out[i] = v - profile[i%len(profile)]
	}
	return &Series{Values: out, Period: s.Period}
}
