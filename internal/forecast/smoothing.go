package forecast

import (
	"math"

	"cubefc/internal/optimize"
	"cubefc/internal/timeseries"
)

// SES is simple exponential smoothing with smoothing parameter Alpha
// estimated by minimizing the in-sample sum of squared one-step errors.
type SES struct {
	Alpha    float64
	Level    float64
	ResidStd float64
	IsFitted bool

	// Fit machinery, reused across fits so a warm re-fit allocates
	// nothing. sseVals is only set for the duration of one Fit call;
	// sseFn is a persistent closure over it.
	warm     seed3
	sseVals  []float64
	sseFn    func(float64) float64
	usedWarm bool
	fellBack bool
}

// NewSES returns an unfitted simple-exponential-smoothing model.
func NewSES() *SES { return &SES{} }

// Name implements Model.
func (m *SES) Name() string { return "ses" }

// Fitted implements Model.
func (m *SES) Fitted() bool { return m.IsFitted }

// AppendParams implements WarmStarter.
func (m *SES) AppendParams(dst []float64) []float64 {
	if !m.IsFitted {
		return dst
	}
	return append(dst, m.Alpha)
}

// WarmStart implements WarmStarter.
func (m *SES) WarmStart(p []float64) {
	if len(p) != 1 {
		m.warm.clear()
		return
	}
	m.warm.set(p)
}

// CloneModel implements Model.
func (m *SES) CloneModel() Model {
	return &SES{Alpha: m.Alpha, Level: m.Level, ResidStd: m.ResidStd, IsFitted: m.IsFitted}
}

// Fit implements Model. A pending WarmStart seed narrows the golden-section
// bracket to ±sesWarmRadius around the seed; if the minimizer pins against
// a narrowed edge (the optimum moved outside the bracket — e.g. a regime
// change) the fit falls back to the full cold bracket.
func (m *SES) Fit(s *timeseries.Series) error {
	if s.Len() < 2 {
		return ErrTooShort
	}
	const lo, hi = 1e-4, 1 - 1e-4
	if m.sseFn == nil {
		m.sseFn = func(alpha float64) float64 {
			vals := m.sseVals
			level := vals[0]
			var acc float64
			for _, x := range vals[1:] {
				e := x - level
				acc += e * e
				level = alpha*x + (1-alpha)*level
			}
			return acc
		}
	}
	m.sseVals = s.Values
	m.usedWarm, m.fellBack = false, false

	var alpha, bestSSE float64
	if m.warm.valid(1) {
		seed := clamp01(m.warm.v[0], lo, hi)
		wlo := math.Max(lo, seed-sesWarmRadius)
		whi := math.Min(hi, seed+sesWarmRadius)
		// A re-fit does not need the cold 1e-6 bracket: alpha to 1e-4 is
		// below any forecast-visible precision (and still well inside
		// sesEdgeTol, so edge detection is unaffected).
		alpha, bestSSE = optimize.GoldenSection(m.sseFn, wlo, whi, 1e-4)
		pinnedLo := wlo > lo && alpha-wlo < sesEdgeTol
		pinnedHi := whi < hi && whi-alpha < sesEdgeTol
		if pinnedLo || pinnedHi {
			m.fellBack = true
		} else {
			m.usedWarm = true
		}
	}
	m.warm.clear()
	if !m.usedWarm {
		alpha, bestSSE = optimize.GoldenSection(m.sseFn, lo, hi, 1e-6)
	}
	m.Alpha = alpha
	m.ResidStd = math.Sqrt(bestSSE / float64(s.Len()-1))
	// Replay to initialize the state at the end of the series.
	m.Level = s.Values[0]
	for _, x := range s.Values[1:] {
		m.Level = m.Alpha*x + (1-m.Alpha)*m.Level
	}
	m.IsFitted = true
	m.sseVals = nil
	return nil
}

// ResidualStd implements Uncertainty.
func (m *SES) ResidualStd() float64 { return m.ResidStd }

// Forecast implements Model.
func (m *SES) Forecast(out []float64) {
	for i := range out {
		out[i] = m.Level
	}
}

// Update implements Model.
func (m *SES) Update(x float64) {
	m.Level = m.Alpha*x + (1-m.Alpha)*m.Level
}

// Holt is double exponential smoothing (level + trend) with optional
// damping. Parameters Alpha, Beta (and Phi when damped) are estimated by
// Nelder-Mead on the in-sample SSE.
type Holt struct {
	Alpha, Beta, Phi float64
	Damped           bool
	Level, Trend     float64
	ResidStd         float64
	IsFitted         bool

	// Fit machinery, reused across fits so a warm re-fit allocates
	// nothing (persistent bounded objective, Nelder-Mead workspace,
	// fixed-size start-point buffers).
	warm             seed3
	objVals          []float64
	objFn            optimize.BoundedObjective
	ws               optimize.NMWorkspace
	startBuf, coldX0 [3]float64
	usedWarm         bool
	fellBack         bool
}

// NewHolt returns an unfitted Holt linear-trend model.
func NewHolt(damped bool) *Holt { return &Holt{Damped: damped, Phi: 1} }

// Name implements Model.
func (m *Holt) Name() string {
	if m.Damped {
		return "holt-damped"
	}
	return "holt"
}

// Fitted implements Model.
func (m *Holt) Fitted() bool { return m.IsFitted }

// holtReplay runs the Holt recurrence over values, returning the in-sample
// SSE and the final level/trend state. The accumulation aborts once the
// partial SSE exceeds bound (the returned state is then meaningless); pass
// +Inf for the full replay.
func holtReplay(values []float64, alpha, beta, phi, bound float64) (sse, level, trend float64) {
	level = values[0]
	trend = values[1] - values[0]
	for _, x := range values[1:] {
		fc := level + phi*trend
		e := x - fc
		sse += e * e
		if sse > bound {
			return sse, level, trend
		}
		newLevel := alpha*x + (1-alpha)*fc
		trend = beta*(newLevel-level) + (1-beta)*phi*trend
		level = newLevel
	}
	return sse, level, trend
}

// nmDim returns the Nelder-Mead search dimension.
func (m *Holt) nmDim() int {
	if m.Damped {
		return 3
	}
	return 2
}

// holtObjective is the bounded in-sample SSE objective over m.objVals.
func (m *Holt) holtObjective(p []float64, bound float64) float64 {
	alpha := clamp01(p[0], 1e-4, 1-1e-4)
	beta := clamp01(p[1], 1e-4, 1-1e-4)
	phi := 1.0
	pen := penalty(p[0], 1e-4, 1-1e-4) + penalty(p[1], 1e-4, 1-1e-4)
	if m.Damped {
		phi = clamp01(p[2], 0.8, 0.999)
		pen += penalty(p[2], 0.8, 0.999)
	}
	// The objective is sse·(1+pen), so sse may stop accumulating once it
	// exceeds bound/(1+pen): the returned product is then still > bound.
	thresh := bound
	if !math.IsInf(bound, 1) {
		thresh = bound / (1 + pen)
	}
	sse, _, _ := holtReplay(m.objVals, alpha, beta, phi, thresh)
	return sse * (1 + pen)
}

// AppendParams implements WarmStarter.
func (m *Holt) AppendParams(dst []float64) []float64 {
	if !m.IsFitted {
		return dst
	}
	if m.Damped {
		return append(dst, m.Alpha, m.Beta, m.Phi)
	}
	return append(dst, m.Alpha, m.Beta)
}

// WarmStart implements WarmStarter.
func (m *Holt) WarmStart(p []float64) {
	if len(p) != m.nmDim() {
		m.warm.clear()
		return
	}
	m.warm.set(p)
}

// CloneModel implements Model.
func (m *Holt) CloneModel() Model {
	return &Holt{
		Alpha: m.Alpha, Beta: m.Beta, Phi: m.Phi, Damped: m.Damped,
		Level: m.Level, Trend: m.Trend, ResidStd: m.ResidStd, IsFitted: m.IsFitted,
	}
}

// Fit implements Model. A pending WarmStart seed starts Nelder-Mead from
// the previous optimum under a reduced iteration cap; if the warm result
// regresses past warmAcceptTol above the objective at the cold starting
// point, the full cold search runs instead (and, starting from that very
// point, cannot do worse).
func (m *Holt) Fit(s *timeseries.Series) error {
	if s.Len() < 3 {
		return ErrTooShort
	}
	if m.objFn == nil {
		m.objFn = m.holtObjective
	}
	m.objVals = s.Values
	m.usedWarm, m.fellBack = false, false

	dim := m.nmDim()
	m.coldX0[0], m.coldX0[1], m.coldX0[2] = 0.5, 0.1, 0.95
	var res optimize.Result
	if m.warm.valid(dim) {
		copy(m.startBuf[:], m.warm.v[:])
		res = optimize.NelderMeadBounded(m.objFn, m.startBuf[:dim], warmNMOptions(dim, &m.ws))
		if res.F <= m.objFn(m.coldX0[:dim], math.Inf(1))*(1+warmAcceptTol) {
			m.usedWarm = true
		} else {
			m.fellBack = true
		}
	}
	m.warm.clear()
	if !m.usedWarm {
		res = optimize.NelderMeadBounded(m.objFn, m.coldX0[:dim],
			optimize.NelderMeadOptions{Workspace: &m.ws})
	}
	m.Alpha = clamp01(res.X[0], 1e-4, 1-1e-4)
	m.Beta = clamp01(res.X[1], 1e-4, 1-1e-4)
	m.Phi = 1
	if m.Damped {
		m.Phi = clamp01(res.X[2], 0.8, 0.999)
	}
	finalSSE, level, trend := holtReplay(s.Values, m.Alpha, m.Beta, m.Phi, math.Inf(1))
	m.Level, m.Trend = level, trend
	m.ResidStd = math.Sqrt(finalSSE / float64(s.Len()-1))
	m.IsFitted = true
	m.objVals = nil
	return nil
}

// ResidualStd implements Uncertainty.
func (m *Holt) ResidualStd() float64 { return m.ResidStd }

// Forecast implements Model.
func (m *Holt) Forecast(out []float64) {
	phiSum := 0.0
	phiPow := 1.0
	for i := range out {
		phiSum += phiPow
		if m.Damped {
			phiPow *= m.Phi
		}
		out[i] = m.Level + phiSum*m.Trend
	}
	if !m.Damped {
		for i := range out {
			out[i] = m.Level + float64(i+1)*m.Trend
		}
	}
}

// Update implements Model.
func (m *Holt) Update(x float64) {
	fc := m.Level + m.Phi*m.Trend
	newLevel := m.Alpha*x + (1-m.Alpha)*fc
	m.Trend = m.Beta*(newLevel-m.Level) + (1-m.Beta)*m.Phi*m.Trend
	m.Level = newLevel
}

// penalty returns a quadratic penalty for values outside [lo, hi], keeping
// the unconstrained Nelder-Mead search inside the valid parameter box.
func penalty(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return (lo - v) * (lo - v) * 100
	case v > hi:
		return (v - hi) * (v - hi) * 100
	default:
		return 0
	}
}

// SeasonMode selects the seasonal component form of Holt-Winters smoothing.
type SeasonMode int

const (
	// Additive seasonality: x ≈ level + trend + season.
	Additive SeasonMode = iota
	// Multiplicative seasonality: x ≈ (level + trend) · season.
	Multiplicative
)

// String returns "additive" or "multiplicative".
func (s SeasonMode) String() string {
	if s == Multiplicative {
		return "multiplicative"
	}
	return "additive"
}

// HoltWinters is triple exponential smoothing — the model the paper's
// evaluation uses for all data sets ("triple exponential smoothing worked
// best in most cases", Section VI-A). Smoothing parameters Alpha, Beta and
// Gamma are estimated by Nelder-Mead on the in-sample SSE.
type HoltWinters struct {
	Period             int
	Mode               SeasonMode
	Alpha, Beta, Gamma float64
	Level, Trend       float64
	Season             []float64 // seasonal state, index = time mod Period
	T                  int       // observations consumed (for season index)
	ResidStd           float64
	IsFitted           bool

	// Fit machinery, reused across fits so a warm re-fit allocates
	// nothing: the objective replays into seasonScratch, never into the
	// live Season state.
	warm             seed3
	objVals          []float64
	seasonScratch    []float64
	objFn            optimize.BoundedObjective
	ws               optimize.NMWorkspace
	startBuf, coldX0 [3]float64
	usedWarm         bool
	fellBack         bool
}

// NewHoltWinters returns an unfitted Holt-Winters model for the given
// seasonal period. A period below 2 is invalid for this model; Fit will
// fail with ErrTooShort semantics in that case.
func NewHoltWinters(period int, mode SeasonMode) *HoltWinters {
	return &HoltWinters{Period: period, Mode: mode}
}

// Name implements Model.
func (m *HoltWinters) Name() string {
	if m.Mode == Multiplicative {
		return "hw-mult"
	}
	return "hw-add"
}

// Fitted implements Model.
func (m *HoltWinters) Fitted() bool { return m.IsFitted }

// hwReplay runs the Holt-Winters recurrence over values, writing the final
// seasonal state into season (which must have length m.Period) and
// returning the in-sample SSE with the final level/trend. The accumulation
// aborts once the partial SSE exceeds bound (season and the returned state
// are then meaningless); pass +Inf for the full replay.
func (m *HoltWinters) hwReplay(values []float64, alpha, beta, gamma float64, season []float64, bound float64) (sse, level, trend float64) {
	p := m.Period
	// Initialization over the first two seasons.
	var mean1, mean2 float64
	for i := 0; i < p; i++ {
		mean1 += values[i]
		mean2 += values[p+i]
	}
	mean1 /= float64(p)
	mean2 /= float64(p)
	level = mean1
	trend = (mean2 - mean1) / float64(p)
	for i := 0; i < p; i++ {
		if m.Mode == Multiplicative {
			if mean1 != 0 {
				season[i] = values[i] / mean1
			} else {
				season[i] = 1
			}
		} else {
			season[i] = values[i] - mean1
		}
	}

	for t := p; t < len(values); t++ {
		si := t % p
		x := values[t]
		var fc float64
		if m.Mode == Multiplicative {
			fc = (level + trend) * season[si]
		} else {
			fc = level + trend + season[si]
		}
		e := x - fc
		sse += e * e
		if sse > bound {
			return sse, level, trend
		}

		prevLevel := level
		if m.Mode == Multiplicative {
			den := season[si]
			if den == 0 {
				den = 1e-9
			}
			level = alpha*(x/den) + (1-alpha)*(prevLevel+trend)
			trend = beta*(level-prevLevel) + (1-beta)*trend
			if level != 0 {
				season[si] = gamma*(x/level) + (1-gamma)*season[si]
			}
		} else {
			level = alpha*(x-season[si]) + (1-alpha)*(prevLevel+trend)
			trend = beta*(level-prevLevel) + (1-beta)*trend
			season[si] = gamma*(x-level) + (1-gamma)*season[si]
		}
	}
	return sse, level, trend
}

// hwObjective is the bounded in-sample SSE objective over m.objVals,
// replaying into seasonScratch.
func (m *HoltWinters) hwObjective(p []float64, bound float64) float64 {
	a := clamp01(p[0], 1e-4, 1-1e-4)
	b := clamp01(p[1], 1e-4, 1-1e-4)
	g := clamp01(p[2], 1e-4, 1-1e-4)
	pen := penalty(p[0], 1e-4, 1-1e-4) + penalty(p[1], 1e-4, 1-1e-4) + penalty(p[2], 1e-4, 1-1e-4)
	thresh := bound
	if !math.IsInf(bound, 1) {
		thresh = bound / (1 + pen)
	}
	sse, _, _ := m.hwReplay(m.objVals, a, b, g, m.seasonScratch, thresh)
	return sse * (1 + pen)
}

// AppendParams implements WarmStarter.
func (m *HoltWinters) AppendParams(dst []float64) []float64 {
	if !m.IsFitted {
		return dst
	}
	return append(dst, m.Alpha, m.Beta, m.Gamma)
}

// Params is AppendParams(nil). It stays only because the benchmark harness
// calls it.
func (m *HoltWinters) Params() []float64 { return m.AppendParams(nil) }

// WarmStart implements WarmStarter.
func (m *HoltWinters) WarmStart(p []float64) {
	if len(p) != 3 {
		m.warm.clear()
		return
	}
	m.warm.set(p)
}

// CloneModel implements Model.
func (m *HoltWinters) CloneModel() Model {
	c := &HoltWinters{
		Period: m.Period, Mode: m.Mode,
		Alpha: m.Alpha, Beta: m.Beta, Gamma: m.Gamma,
		Level: m.Level, Trend: m.Trend, T: m.T,
		ResidStd: m.ResidStd, IsFitted: m.IsFitted,
	}
	if m.Season != nil {
		c.Season = append([]float64(nil), m.Season...)
	}
	return c
}

// Fit implements Model. It requires at least two full seasons of data. A
// pending WarmStart seed starts Nelder-Mead from the previous optimum with
// the same acceptance/fallback rule as Holt.Fit.
func (m *HoltWinters) Fit(s *timeseries.Series) error {
	if m.Period < 2 || s.Len() < 2*m.Period+1 {
		return ErrTooShort
	}
	if m.Mode == Multiplicative {
		// Multiplicative seasonality requires strictly positive data.
		for _, v := range s.Values {
			if v <= 0 {
				return ErrTooShort
			}
		}
	}
	if m.objFn == nil {
		m.objFn = m.hwObjective
	}
	m.objVals = s.Values
	m.seasonScratch = growFloats(m.seasonScratch, m.Period)
	m.usedWarm, m.fellBack = false, false

	m.coldX0[0], m.coldX0[1], m.coldX0[2] = 0.3, 0.05, 0.1
	var res optimize.Result
	if m.warm.valid(3) {
		copy(m.startBuf[:], m.warm.v[:])
		res = optimize.NelderMeadBounded(m.objFn, m.startBuf[:3], warmNMOptions(3, &m.ws))
		if res.F <= m.objFn(m.coldX0[:3], math.Inf(1))*(1+warmAcceptTol) {
			m.usedWarm = true
		} else {
			m.fellBack = true
		}
	}
	m.warm.clear()
	if !m.usedWarm {
		res = optimize.NelderMeadBounded(m.objFn, m.coldX0[:3],
			optimize.NelderMeadOptions{Workspace: &m.ws})
	}
	m.Alpha = clamp01(res.X[0], 1e-4, 1-1e-4)
	m.Beta = clamp01(res.X[1], 1e-4, 1-1e-4)
	m.Gamma = clamp01(res.X[2], 1e-4, 1-1e-4)
	if len(m.Season) != m.Period {
		m.Season = make([]float64, m.Period)
	}
	finalSSE, level, trend := m.hwReplay(s.Values, m.Alpha, m.Beta, m.Gamma, m.Season, math.Inf(1))
	m.Level, m.Trend, m.T = level, trend, s.Len()
	if n := s.Len() - m.Period; n > 0 {
		m.ResidStd = math.Sqrt(finalSSE / float64(n))
	}
	m.IsFitted = true
	m.objVals = nil
	return nil
}

// ResidualStd implements Uncertainty.
func (m *HoltWinters) ResidualStd() float64 { return m.ResidStd }

// Forecast implements Model.
func (m *HoltWinters) Forecast(out []float64) {
	for i := 1; i <= len(out); i++ {
		si := (m.T + i - 1) % m.Period
		if m.Mode == Multiplicative {
			out[i-1] = (m.Level + float64(i)*m.Trend) * m.Season[si]
		} else {
			out[i-1] = m.Level + float64(i)*m.Trend + m.Season[si]
		}
	}
}

// Update implements Model.
func (m *HoltWinters) Update(x float64) {
	si := m.T % m.Period
	prevLevel := m.Level
	if m.Mode == Multiplicative {
		den := m.Season[si]
		if den == 0 {
			den = 1e-9
		}
		m.Level = m.Alpha*(x/den) + (1-m.Alpha)*(prevLevel+m.Trend)
		m.Trend = m.Beta*(m.Level-prevLevel) + (1-m.Beta)*m.Trend
		if m.Level != 0 {
			m.Season[si] = m.Gamma*(x/m.Level) + (1-m.Gamma)*m.Season[si]
		}
	} else {
		m.Level = m.Alpha*(x-m.Season[si]) + (1-m.Alpha)*(prevLevel+m.Trend)
		m.Trend = m.Beta*(m.Level-prevLevel) + (1-m.Beta)*m.Trend
		m.Season[si] = m.Gamma*(x-m.Level) + (1-m.Gamma)*m.Season[si]
	}
	m.T++
}
