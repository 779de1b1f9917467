package timeseries

import "math"

// SMAPE returns the symmetric mean absolute percentage error between actual
// and forecast values:
//
//	SMAPE = mean_t( |x_t - x̂_t| / (|x_t| + |x̂_t|) )
//
// Eq. 4 of the paper writes the denominator as (x_t + x̂_t), assuming
// non-negative series; taking absolute values is the standard generalization
// that keeps the measure scale independent and in [0, 1] for series that
// may dip below zero (a plain sum could go negative or cancel to zero and
// push the ratio out of range). For non-negative data the two definitions
// coincide. Time steps where both actual and forecast are zero contribute
// an error of zero (the forecast is exact).
func SMAPE(actual, forecast []float64) float64 {
	n := min(len(actual), len(forecast))
	if n == 0 {
		return math.NaN()
	}
	var acc float64
	for i := 0; i < n; i++ {
		num := math.Abs(actual[i] - forecast[i])
		den := math.Abs(actual[i]) + math.Abs(forecast[i])
		if den == 0 {
			continue // both zero: perfect forecast for this step
		}
		acc += num / den
	}
	return acc / float64(n)
}
