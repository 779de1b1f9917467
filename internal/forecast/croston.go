package forecast

import (
	"math"

	"cubefc/internal/timeseries"
)

// Croston implements Croston's method for intermittent demand — series
// with many zero observations, common at the base level of retail cubes.
// Separate exponential smoothings run over the non-zero demand sizes and
// the inter-demand intervals; the forecast is their ratio. The smoothing
// parameter Alpha is shared (the classical formulation) and estimated by
// golden-section search on the in-sample squared error. With the SBA flag
// the Syntetos-Boylan approximation multiplies the forecast by
// (1 - α/2), correcting Croston's positive bias.
type Croston struct {
	Alpha    float64
	SBA      bool
	Size     float64 // smoothed demand size
	Interval float64 // smoothed inter-demand interval
	Gap      int     // periods since the last non-zero demand
	ResidStd float64
	IsFitted bool
}

// NewCroston returns an unfitted Croston model; sba enables the
// Syntetos-Boylan bias correction.
func NewCroston(sba bool) *Croston { return &Croston{SBA: sba} }

// Name implements Model.
func (m *Croston) Name() string {
	if m.SBA {
		return "croston-sba"
	}
	return "croston"
}

// Fitted implements Model.
func (m *Croston) Fitted() bool { return m.IsFitted }

// replay runs Croston's recurrence and returns the in-sample SSE together
// with the final state.
func (m *Croston) replay(values []float64, alpha float64) (sse, size, interval float64, gap int, ok bool) {
	// Initialize from the first non-zero demand.
	first := -1
	for i, v := range values {
		if v > 0 {
			first = i
			break
		}
	}
	if first < 0 {
		return 0, 0, 0, 0, false
	}
	size = values[first]
	interval = float64(first + 1)
	gap = 0
	corr := 1.0
	if m.SBA {
		corr = 1 - alpha/2
	}
	for t := first + 1; t < len(values); t++ {
		fc := corr * size / interval
		e := values[t] - fc
		sse += e * e
		gap++
		if values[t] > 0 {
			size = alpha*values[t] + (1-alpha)*size
			interval = alpha*float64(gap) + (1-alpha)*interval
			gap = 0
		}
	}
	return sse, size, interval, gap, true
}

// Fit implements Model. It requires at least two non-zero observations.
func (m *Croston) Fit(s *timeseries.Series) error {
	nonZero := 0
	for _, v := range s.Values {
		if v > 0 {
			nonZero++
		}
	}
	if nonZero < 2 {
		return ErrTooShort
	}
	best, bestSSE := 0.1, math.Inf(1)
	for _, alpha := range []float64{0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5} {
		if sse, _, _, _, ok := m.replay(s.Values, alpha); ok && sse < bestSSE {
			best, bestSSE = alpha, sse
		}
	}
	m.Alpha = best
	var ok bool
	_, m.Size, m.Interval, m.Gap, ok = m.replay(s.Values, best)
	if !ok {
		return ErrTooShort
	}
	if n := len(s.Values) - 1; n > 0 {
		m.ResidStd = math.Sqrt(bestSSE / float64(n))
	}
	m.IsFitted = true
	return nil
}

// ResidualStd implements Uncertainty.
func (m *Croston) ResidualStd() float64 { return m.ResidStd }

// Forecast implements Model: the demand-rate forecast is flat over the
// horizon.
func (m *Croston) Forecast(h int) []float64 {
	rate := 0.0
	if m.Interval > 0 {
		rate = m.Size / m.Interval
		if m.SBA {
			rate *= 1 - m.Alpha/2
		}
	}
	out := make([]float64, h)
	for i := range out {
		out[i] = rate
	}
	return out
}

// Update implements Model.
func (m *Croston) Update(x float64) {
	m.Gap++
	if x > 0 {
		m.Size = m.Alpha*x + (1-m.Alpha)*m.Size
		m.Interval = m.Alpha*float64(m.Gap) + (1-m.Alpha)*m.Interval
		m.Gap = 0
	}
}

// Theta implements the Theta method (Assimakopoulos & Nikolopoulos), the
// best performer of the M3 competition the paper cites for model quality:
// the forecast combines the linear-regression trend of the series (the
// θ = 0 line) with SES applied to the θ = 2 line, averaging both. Seasonal
// series are handled by additive decomposition using the seasonal-average
// profile before applying the method and restoring the profile afterwards.
type Theta struct {
	Period    int
	Intercept float64
	Slope     float64
	SES       *SES
	Seasonal  []float64 // additive seasonal profile, empty if non-seasonal
	N         int
	ResidStd  float64
	IsFitted  bool
}

// NewTheta returns an unfitted Theta-method model.
func NewTheta(period int) *Theta {
	if period < 1 {
		period = 1
	}
	return &Theta{Period: period}
}

// Name implements Model.
func (m *Theta) Name() string { return "theta" }

// Fitted implements Model.
func (m *Theta) Fitted() bool { return m.IsFitted }

// Fit implements Model.
func (m *Theta) Fit(s *timeseries.Series) error {
	n := s.Len()
	if n < 4 {
		return ErrTooShort
	}
	vals := make([]float64, n)
	copy(vals, s.Values)

	// Additive seasonal adjustment via the per-phase mean deviation.
	m.Seasonal = s.SeasonalProfile(m.Period)
	if len(m.Seasonal) > 0 {
		vals = s.Deseasonalize(m.Seasonal).Values
	}

	// θ=0 line: ordinary least-squares trend.
	var sx, sy, sxx, sxy float64
	for i, v := range vals {
		x := float64(i)
		sx += x
		sy += v
		sxx += x * x
		sxy += x * v
	}
	den := float64(n)*sxx - sx*sx
	if den == 0 {
		return ErrTooShort
	}
	m.Slope = (float64(n)*sxy - sx*sy) / den
	m.Intercept = (sy - m.Slope*sx) / float64(n)

	// θ=2 line: 2·x − trend, smoothed with SES.
	theta2 := make([]float64, n)
	for i, v := range vals {
		trend := m.Intercept + m.Slope*float64(i)
		theta2[i] = 2*v - trend
	}
	m.SES = NewSES()
	if err := m.SES.Fit(timeseries.New(theta2, 1)); err != nil {
		return err
	}
	m.N = n

	// One-step in-sample residuals for interval support.
	var sse float64
	for i := 1; i < n; i++ {
		fitTrend := m.Intercept + m.Slope*float64(i)
		fc := (fitTrend + theta2[i-1]) / 2 // crude one-step proxy
		e := vals[i] - fc
		sse += e * e
	}
	m.ResidStd = math.Sqrt(sse / float64(n-1))
	m.IsFitted = true
	return nil
}

// ResidualStd implements Uncertainty.
func (m *Theta) ResidualStd() float64 { return m.ResidStd }

// Forecast implements Model: average of the extrapolated trend line and
// the SES forecast of the θ=2 line, re-seasonalized.
func (m *Theta) Forecast(h int) []float64 {
	out := make([]float64, h)
	sesFc := m.SES.Forecast(h)
	for i := 0; i < h; i++ {
		t := m.N + i
		trend := m.Intercept + m.Slope*float64(t)
		v := (trend + sesFc[i]) / 2
		if len(m.Seasonal) > 0 {
			v += m.Seasonal[t%m.Period]
		}
		out[i] = v
	}
	return out
}

// Update implements Model: the trend line stays fixed (re-estimation is a
// fresh Fit); the θ=2 SES state advances with the deseasonalized,
// detrended observation.
func (m *Theta) Update(x float64) {
	if len(m.Seasonal) > 0 {
		x -= m.Seasonal[m.N%m.Period]
	}
	trend := m.Intercept + m.Slope*float64(m.N)
	m.SES.Update(2*x - trend)
	m.N++
}
