package forecast

import (
	"math"

	"cubefc/internal/timeseries"
)

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

// CloneModel implements Model.
func (m *Theta) CloneModel() Model {
	c := *m
	if m.SES != nil {
		c.SES = m.SES.CloneModel().(*SES)
	}
	c.Seasonal = append([]float64(nil), m.Seasonal...)
	return &c
}

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
// the SES forecast of the θ=2 line (flat at its level), re-seasonalized.
func (m *Theta) Forecast(out []float64) {
	for i := range out {
		t := m.N + i
		trend := m.Intercept + m.Slope*float64(t)
		v := (trend + m.SES.Level) / 2
		if len(m.Seasonal) > 0 {
			v += m.Seasonal[t%m.Period]
		}
		out[i] = v
	}
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
