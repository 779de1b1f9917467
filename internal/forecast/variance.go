package forecast

import "math"

// HorizonVariance is implemented by models that know how their forecast
// variance grows with the horizon. VarianceScale(h) returns the factor by
// which the one-step residual standard deviation is multiplied at horizon
// h >= 1 (so VarianceScale(1) == 1 for exact implementations). Models
// without the interface get a √h random-walk approximation.
type HorizonVariance interface {
	VarianceScale(h int) float64
}

// VarianceScaleOf returns the model's horizon scale, falling back to the
// √h approximation.
func VarianceScaleOf(m Model, h int) float64 {
	if h < 1 {
		h = 1
	}
	if hv, ok := m.(HorizonVariance); ok {
		return hv.VarianceScale(h)
	}
	return math.Sqrt(float64(h))
}

// VarianceScale implements HorizonVariance for the random-walk forecast:
// Var(h) = σ²·h.
func (m *Naive) VarianceScale(h int) float64 { return math.Sqrt(float64(h)) }

// VarianceScale implements HorizonVariance: each season repeats the
// random-walk step once per period: Var(h) = σ²·(⌊(h-1)/m⌋ + 1).
func (m *SeasonalNaive) VarianceScale(h int) float64 {
	p := m.Period
	if p < 1 {
		p = 1
	}
	return math.Sqrt(float64((h-1)/p + 1))
}

// VarianceScale implements HorizonVariance for the drift forecast:
// Var(h) = σ²·h·(1 + h/(n-1)).
func (m *Drift) VarianceScale(h int) float64 {
	n := m.N
	if n < 2 {
		n = 2
	}
	return math.Sqrt(float64(h) * (1 + float64(h)/float64(n-1)))
}

// VarianceScale implements HorizonVariance for the mean forecast, whose
// variance is horizon independent.
func (m *MeanModel) VarianceScale(int) float64 { return 1 }

// VarianceScale implements HorizonVariance for simple exponential
// smoothing (class-1 state-space result): Var(h) = σ²·(1 + (h-1)·α²).
func (m *SES) VarianceScale(h int) float64 {
	return math.Sqrt(1 + float64(h-1)*m.Alpha*m.Alpha)
}

// VarianceScale implements HorizonVariance for Holt's linear (and damped)
// trend method: Var(h) = σ²·(1 + Σ_{j=1}^{h-1} c_j²) with
// c_j = α·(1 + β·φ_j) where φ_j is j for the undamped and the damped-sum
// φ(1-φ^j)/(1-φ) for the damped variant.
func (m *Holt) VarianceScale(h int) float64 {
	acc := 1.0
	for j := 1; j < h; j++ {
		var phiJ float64
		if m.Damped && m.Phi < 1 {
			phiJ = m.Phi * (1 - math.Pow(m.Phi, float64(j))) / (1 - m.Phi)
		} else {
			phiJ = float64(j)
		}
		c := m.Alpha * (1 + m.Beta*phiJ)
		acc += c * c
	}
	return math.Sqrt(acc)
}

// VarianceScale implements HorizonVariance for additive Holt-Winters
// (class-1 result): c_j = α·(1 + j·β) + γ·1[j ≡ 0 (mod m)]. The
// multiplicative variant has no closed form and reuses the additive
// expression as an approximation.
func (m *HoltWinters) VarianceScale(h int) float64 {
	p := m.Period
	if p < 1 {
		p = 1
	}
	acc := 1.0
	for j := 1; j < h; j++ {
		c := m.Alpha * (1 + float64(j)*m.Beta)
		if j%p == 0 {
			c += m.Gamma
		}
		acc += c * c
	}
	return math.Sqrt(acc)
}

// VarianceScale implements HorizonVariance by delegating to the chosen
// model.
func (m *Auto) VarianceScale(h int) float64 {
	if m.Chosen == nil {
		return math.Sqrt(float64(h))
	}
	return VarianceScaleOf(m.Chosen, h)
}
