package forecast

import (
	"math"

	"cubefc/internal/timeseries"
)

// Auto selects the best model from a candidate portfolio on Fit using a
// holdout evaluation (last 20% of the training series, at least one
// observation) scored by SMAPE, falling back to Naive when no candidate
// backtests. After selection the winning family is re-fitted on the full
// series. All other Model methods delegate to the chosen model.
type Auto struct {
	Period   int
	Chosen   Model
	IsFitted bool
}

// NewAuto returns an unfitted automatic-selection model.
func NewAuto(period int) *Auto { return &Auto{Period: period} }

// Name implements Model; it reports the chosen family after Fit.
func (m *Auto) Name() string {
	if m.Chosen != nil {
		return "auto:" + m.Chosen.Name()
	}
	return "auto"
}

// Fitted implements Model.
func (m *Auto) Fitted() bool { return m.IsFitted }

// candidates returns the portfolio of factories appropriate for the period.
func (m *Auto) candidates() []Factory {
	fs := []Factory{
		func(p int) Model { return NewSES() },
		func(p int) Model { return NewHolt(false) },
		func(p int) Model { return NewHolt(true) },
		func(p int) Model { return NewNaive() },
		func(p int) Model { return NewDrift() },
		func(p int) Model { return NewTheta(p) },
		func(p int) Model { return NewCroston(true) },
	}
	if m.Period >= 2 {
		fs = append(fs,
			func(p int) Model { return NewHoltWinters(p, Additive) },
			func(p int) Model { return NewHoltWinters(p, Multiplicative) },
			func(p int) Model { return NewSeasonalNaive(p) },
		)
	}
	return fs
}

// Fit implements Model.
func (m *Auto) Fit(s *timeseries.Series) error {
	if s.Len() < 3 {
		return ErrTooShort
	}
	best := math.Inf(1)
	var bestFactory Factory
	for _, f := range m.candidates() {
		err, ferr := Backtest(f, s, 0.8)
		if ferr != nil || math.IsNaN(err) {
			continue
		}
		if err < best {
			best = err
			bestFactory = f
		}
	}
	if bestFactory == nil {
		// Fall back to naive, which fits any non-empty series.
		bestFactory = func(p int) Model { return NewNaive() }
	}
	chosen := bestFactory(m.Period)
	if err := chosen.Fit(s); err != nil {
		return err
	}
	m.Chosen = chosen
	m.IsFitted = true
	return nil
}

// ResidualStd implements Uncertainty by delegating to the chosen model.
func (m *Auto) ResidualStd() float64 {
	if u, ok := m.Chosen.(Uncertainty); ok {
		return u.ResidualStd()
	}
	return 0
}

// Forecast implements Model.
func (m *Auto) Forecast(h int) []float64 {
	if m.Chosen == nil {
		return make([]float64, h)
	}
	return m.Chosen.Forecast(h)
}

// Update implements Model.
func (m *Auto) Update(x float64) {
	if m.Chosen != nil {
		m.Chosen.Update(x)
	}
}
