// Package forecast implements the time-series forecast models used by the
// advisor: the exponential-smoothing family (simple, Holt and the
// Holt-Winters triple smoothing the paper found to work best, Section VI-A),
// the Theta method and the naive forecast that ends the fallback chain for
// short series. Models support incremental state updates (Update) as
// required by the F²DB maintenance processor (Section V).
package forecast

import (
	"errors"

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
	// Forecast writes the point forecasts for horizons 1..len(out) from
	// the current state into out.
	Forecast(out []float64)
	// Update advances the state with one new observation.
	Update(x float64)
	// Fitted reports whether Fit completed successfully.
	Fitted() bool
	// CloneModel returns an independent copy carrying the fitted state
	// (it can Forecast and Update at once) but none of the fit-time
	// scratch: mutating one (Fit, Update, WarmStart) never affects the
	// other.
	CloneModel() Model
	// AppendBinary appends the model's encoding (codec.go) to b;
	// DecodeModel restores it.
	AppendBinary(b []byte) ([]byte, error)
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
