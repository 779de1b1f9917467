package forecast

import (
	"math"

	"cubefc/internal/timeseries"
)

// lagResidualStd estimates the one-step residual standard deviation of a
// lag-based forecaster: e_t = x_t - x_{t-lag}.
func lagResidualStd(values []float64, lag int) float64 {
	if lag < 1 || len(values) <= lag {
		return 0
	}
	var sse float64
	for t := lag; t < len(values); t++ {
		e := values[t] - values[t-lag]
		sse += e * e
	}
	return math.Sqrt(sse / float64(len(values)-lag))
}

// Naive forecasts every horizon with the last observed value. It needs at
// least one observation and has no parameters.
type Naive struct {
	Last     float64
	ResidStd float64
	IsFitted bool
}

// NewNaive returns an unfitted naive model.
func NewNaive() *Naive { return &Naive{} }

// Name implements Model.
func (m *Naive) Name() string { return "naive" }

// Fitted implements Model.
func (m *Naive) Fitted() bool { return m.IsFitted }

// Fit implements Model.
func (m *Naive) Fit(s *timeseries.Series) error {
	if s.Len() < 1 {
		return ErrTooShort
	}
	m.Last = s.Values[s.Len()-1]
	m.ResidStd = lagResidualStd(s.Values, 1)
	m.IsFitted = true
	return nil
}

// ResidualStd implements Uncertainty.
func (m *Naive) ResidualStd() float64 { return m.ResidStd }

// Forecast implements Model.
func (m *Naive) Forecast(h int) []float64 {
	out := make([]float64, h)
	for i := range out {
		out[i] = m.Last
	}
	return out
}

// Update implements Model.
func (m *Naive) Update(x float64) { m.Last = x }

// SeasonalNaive forecasts with the value observed one season earlier.
type SeasonalNaive struct {
	Period   int
	Season   []float64 // last observed season, oldest first
	ResidStd float64
	IsFitted bool
}

// NewSeasonalNaive returns an unfitted seasonal-naive model; period <= 1
// degrades to the plain naive behavior.
func NewSeasonalNaive(period int) *SeasonalNaive {
	if period < 1 {
		period = 1
	}
	return &SeasonalNaive{Period: period}
}

// Name implements Model.
func (m *SeasonalNaive) Name() string { return "snaive" }

// Fitted implements Model.
func (m *SeasonalNaive) Fitted() bool { return m.IsFitted }

// Fit implements Model.
func (m *SeasonalNaive) Fit(s *timeseries.Series) error {
	if s.Len() < m.Period {
		return ErrTooShort
	}
	m.Season = make([]float64, m.Period)
	copy(m.Season, s.Values[s.Len()-m.Period:])
	m.ResidStd = lagResidualStd(s.Values, m.Period)
	m.IsFitted = true
	return nil
}

// ResidualStd implements Uncertainty.
func (m *SeasonalNaive) ResidualStd() float64 { return m.ResidStd }

// Forecast implements Model.
func (m *SeasonalNaive) Forecast(h int) []float64 {
	out := make([]float64, h)
	for i := range out {
		out[i] = m.Season[i%m.Period]
	}
	return out
}

// Update implements Model.
func (m *SeasonalNaive) Update(x float64) {
	m.Season = append(m.Season[1:], x)
}

// Drift forecasts by extrapolating the average historical change (the line
// through first and last observation).
type Drift struct {
	Last     float64
	Slope    float64
	N        int
	ResidStd float64
	IsFitted bool
}

// NewDrift returns an unfitted drift model.
func NewDrift() *Drift { return &Drift{} }

// Name implements Model.
func (m *Drift) Name() string { return "drift" }

// Fitted implements Model.
func (m *Drift) Fitted() bool { return m.IsFitted }

// Fit implements Model.
func (m *Drift) Fit(s *timeseries.Series) error {
	if s.Len() < 2 {
		return ErrTooShort
	}
	m.N = s.Len()
	m.Last = s.Values[s.Len()-1]
	m.Slope = (m.Last - s.Values[0]) / float64(s.Len()-1)
	var sse float64
	for t := 1; t < s.Len(); t++ {
		e := s.Values[t] - (s.Values[t-1] + m.Slope)
		sse += e * e
	}
	m.ResidStd = math.Sqrt(sse / float64(s.Len()-1))
	m.IsFitted = true
	return nil
}

// ResidualStd implements Uncertainty.
func (m *Drift) ResidualStd() float64 { return m.ResidStd }

// Forecast implements Model.
func (m *Drift) Forecast(h int) []float64 {
	out := make([]float64, h)
	for i := range out {
		out[i] = m.Last + float64(i+1)*m.Slope
	}
	return out
}

// Update implements Model. The slope is refreshed with the incremental
// average change.
func (m *Drift) Update(x float64) {
	m.Slope = (m.Slope*float64(m.N-1) + (x - m.Last)) / float64(m.N)
	m.Last = x
	m.N++
}

// MeanModel forecasts every horizon with the historical mean.
type MeanModel struct {
	Mean     float64
	N        int
	ResidStd float64
	IsFitted bool
}

// NewMean returns an unfitted historical-mean model.
func NewMean() *MeanModel { return &MeanModel{} }

// Name implements Model.
func (m *MeanModel) Name() string { return "mean" }

// Fitted implements Model.
func (m *MeanModel) Fitted() bool { return m.IsFitted }

// Fit implements Model.
func (m *MeanModel) Fit(s *timeseries.Series) error {
	if s.Len() < 1 {
		return ErrTooShort
	}
	m.Mean = s.Mean()
	m.N = s.Len()
	m.ResidStd = s.Std()
	m.IsFitted = true
	return nil
}

// ResidualStd implements Uncertainty.
func (m *MeanModel) ResidualStd() float64 { return m.ResidStd }

// Forecast implements Model.
func (m *MeanModel) Forecast(h int) []float64 {
	out := make([]float64, h)
	for i := range out {
		out[i] = m.Mean
	}
	return out
}

// Update implements Model.
func (m *MeanModel) Update(x float64) {
	m.Mean = (m.Mean*float64(m.N) + x) / float64(m.N+1)
	m.N++
}
