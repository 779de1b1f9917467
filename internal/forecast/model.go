// Package forecast implements the time-series forecast models used by the
// advisor: the exponential-smoothing family (simple, Holt, and the
// Holt-Winters triple smoothing the paper found to work best, Section VI-A),
// Croston and Theta, naive baselines and holdout-based automatic selection
// (Auto). Models support incremental state updates (Update) as required by
// the F²DB maintenance processor (Section V).
package forecast

import (
	"encoding/gob"
	"errors"
	"fmt"
	"math"

	"cubefc/internal/timeseries"
)

// Model is a forecast model over a single time series. The lifecycle is
// Fit → Forecast / Update. Update appends one new observation and advances
// the internal state without re-estimating parameters (the cheap part of
// maintenance); re-estimation is a fresh Fit.
type Model interface {
	// Name identifies the model family, e.g. "hw-add".
	Name() string
	// Fit estimates the parameters on the given series and initializes
	// the forecasting state at the end of the series.
	Fit(s *timeseries.Series) error
	// Forecast returns point forecasts for horizons 1..h from the
	// current state.
	Forecast(h int) []float64
	// Update advances the state with one new observation.
	Update(x float64)
	// Fitted reports whether Fit completed successfully.
	Fitted() bool
}

// Uncertainty is implemented by models that estimate the standard
// deviation of their one-step-ahead in-sample residuals during Fit. The
// F²DB query processor uses it to attach prediction intervals to forecast
// queries (point ± z·σ·√h, a random-walk-spread approximation).
type Uncertainty interface {
	// ResidualStd returns the one-step residual standard deviation
	// estimated at fit time (0 when unknown).
	ResidualStd() float64
}

// Factory creates an unfitted model instance. period is the seasonal
// period of the series the model will be fitted on.
type Factory func(period int) Model

// ErrTooShort is returned when a series has too few observations for the
// requested model.
var ErrTooShort = errors.New("forecast: series too short for model")

// ErrNotFitted is returned by operations requiring a fitted model.
var ErrNotFitted = errors.New("forecast: model is not fitted")

func init() {
	// Register concrete types so model configurations can be serialized
	// by the F²DB configuration storage via encoding/gob.
	gob.Register(&Naive{})
	gob.Register(&SeasonalNaive{})
	gob.Register(&Drift{})
	gob.Register(&MeanModel{})
	gob.Register(&SES{})
	gob.Register(&Holt{})
	gob.Register(&HoltWinters{})
	gob.Register(&Auto{})
	gob.Register(&Croston{})
	gob.Register(&Theta{})
}

// NewByName creates an unfitted model by family name. It is the inverse of
// Model.Name and is used by configuration storage and the CLI tools.
func NewByName(name string, period int) (Model, error) {
	switch name {
	case "naive":
		return NewNaive(), nil
	case "snaive":
		return NewSeasonalNaive(period), nil
	case "drift":
		return NewDrift(), nil
	case "mean":
		return NewMean(), nil
	case "ses":
		return NewSES(), nil
	case "holt":
		return NewHolt(false), nil
	case "holt-damped":
		return NewHolt(true), nil
	case "hw-add":
		return NewHoltWinters(period, Additive), nil
	case "hw-mult":
		return NewHoltWinters(period, Multiplicative), nil
	case "croston":
		return NewCroston(false), nil
	case "croston-sba":
		return NewCroston(true), nil
	case "theta":
		return NewTheta(period), nil
	case "auto":
		return NewAuto(period), nil
	default:
		return nil, fmt.Errorf("forecast: unknown model family %q", name)
	}
}

// FactoryByName returns a Factory for a family name, failing fast on
// unknown names.
func FactoryByName(name string) (Factory, error) {
	if _, err := NewByName(name, 1); err != nil {
		return nil, err
	}
	return func(period int) Model {
		m, _ := NewByName(name, period)
		return m
	}, nil
}

// Backtest fits a fresh model from factory on the training part of s (per
// ratio) and returns the SMAPE of its forecasts over the test part.
func Backtest(factory Factory, s *timeseries.Series, ratio float64) (float64, error) {
	train, test := s.Split(ratio)
	if test.Len() == 0 {
		return math.NaN(), errors.New("forecast: empty test part in backtest")
	}
	m := factory(s.Period)
	if err := m.Fit(train); err != nil {
		return math.NaN(), err
	}
	fc := m.Forecast(test.Len())
	return timeseries.SMAPE(test.Values, fc), nil
}

// clamp01 keeps smoothing parameters inside (lo, hi) to protect the state
// recurrences from degenerate values proposed by the optimizer.
func clamp01(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
