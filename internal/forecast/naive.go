package forecast

import (
	"math"

	"cubefc/internal/timeseries"
)

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

// CloneModel implements Model.
func (m *Naive) CloneModel() Model { c := *m; return &c }

// Fit implements Model.
func (m *Naive) Fit(s *timeseries.Series) error {
	if s.Len() < 1 {
		return ErrTooShort
	}
	m.Last = s.Values[s.Len()-1]
	// One-step residuals of the random walk: e_t = x_t - x_{t-1}.
	m.ResidStd = 0
	if n := s.Len(); n > 1 {
		var sse float64
		for t := 1; t < n; t++ {
			e := s.Values[t] - s.Values[t-1]
			sse += e * e
		}
		m.ResidStd = math.Sqrt(sse / float64(n-1))
	}
	m.IsFitted = true
	return nil
}

// ResidualStd implements Uncertainty.
func (m *Naive) ResidualStd() float64 { return m.ResidStd }

// Forecast implements Model.
func (m *Naive) Forecast(out []float64) {
	for i := range out {
		out[i] = m.Last
	}
}

// Update implements Model.
func (m *Naive) Update(x float64) { m.Last = x }
