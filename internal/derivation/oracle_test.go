package derivation

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cubefc/internal/timeseries"
)

// The materializing kernels, verbatim from before the historical error, the
// weight stability and the scheme error went streaming (and the first two
// became one kernel, HistoricalIndicators). They are the definition the
// streaming kernels are held to, bit for bit.

func OracleHistoricalError(src SeriesSource, target int, sources []int, historyLen int) (float64, error) {
	k, err := Weight(src, target, sources, historyLen)
	if err != nil {
		return math.NaN(), err
	}
	tv := src.NodeValues(target)
	n := len(tv)
	if historyLen > 0 && historyLen < n {
		n = historyLen
	}
	derived := make([]float64, n)
	for _, s := range sources {
		for i, v := range src.NodeValues(s)[:n] {
			derived[i] += v
		}
	}
	for i := range derived {
		derived[i] *= k
	}
	return timeseries.SMAPE(tv[:n], derived), nil
}

func OracleWeightStability(src SeriesSource, target int, sources []int, historyLen int) float64 {
	tv := src.NodeValues(target)
	n := len(tv)
	if historyLen > 0 && historyLen < n {
		n = historyLen
	}
	ratios := make([]float64, 0, n)
	srcVals := make([][]float64, len(sources))
	for i, s := range sources {
		srcVals[i] = src.NodeValues(s)
	}
	for i := 0; i < n; i++ {
		var den float64
		for _, sv := range srcVals {
			den += sv[i]
		}
		if math.Abs(den) < 1e-12 {
			continue
		}
		ratios = append(ratios, tv[i]/den)
	}
	if len(ratios) < 2 {
		return math.Inf(1)
	}
	var mean float64
	for _, r := range ratios {
		mean += r
	}
	mean /= float64(len(ratios))
	var variance float64
	for _, r := range ratios {
		d := r - mean
		variance += d * d
	}
	variance /= float64(len(ratios))
	if mean == 0 {
		return math.Inf(1)
	}
	return math.Sqrt(variance) / math.Abs(mean)
}

// oracleApply is Scheme.Apply as it was while it materialized the sum and
// scaled it in a second pass — before Apply, ApplyTo and SMAPE shared one
// per-step kernel.
func oracleApply(sc *Scheme, sourceForecasts [][]float64) ([]float64, error) {
	if len(sourceForecasts) != len(sc.Sources) {
		return nil, fmt.Errorf("derivation: got %d forecasts for %d sources", len(sourceForecasts), len(sc.Sources))
	}
	if len(sourceForecasts) == 0 {
		return nil, fmt.Errorf("derivation: no source forecasts")
	}
	h := len(sourceForecasts[0])
	out := make([]float64, h)
	for i, fc := range sourceForecasts {
		if len(fc) != h {
			return nil, fmt.Errorf("derivation: forecast %d has length %d, want %d", i, len(fc), h)
		}
		for j, v := range fc {
			out[j] += v
		}
	}
	for j := range out {
		out[j] *= sc.K
	}
	return out, nil
}

// oracleSchemeSMAPE is what scheme evaluation computed while it materialized.
func oracleSchemeSMAPE(sc *Scheme, actual []float64, sourceForecasts [][]float64) (float64, error) {
	fc, err := oracleApply(sc, sourceForecasts)
	if err != nil {
		return math.NaN(), err
	}
	return timeseries.SMAPE(actual, fc), nil
}

// KernelCase is one generated input for the kernel differentials: series 0
// is the target (history, or the actuals of a scheme error), series 1…m the
// sources (histories, or per-source forecasts).
type KernelCase struct {
	Series     SliceSource
	Sources    []int
	HistoryLen int
	Scheme     Scheme    // over Sources, for Apply / SMAPE
	Actual     []float64 // deliberately not always the forecasts' length
	Forecasts  [][]float64
}

// SliceSource serves node id's history from element id.
type SliceSource [][]float64

func (s SliceSource) NodeValues(id int) []float64 { return s[id] }

// Generate implements quick.Generator: 1–9 sources (the stack buffer holds
// eight, so the spill is crossed), lengths 0–64, every historyLen regime,
// and the value shapes the kernels special-case.
func (KernelCase) Generate(r *rand.Rand, _ int) reflect.Value {
	m := 1 + r.Intn(9)
	n := r.Intn(65)
	if r.Intn(8) == 0 {
		n = r.Intn(3) // 0, 1 and 2 observations: NaN and the "< 2 usable steps" exits
	}
	c := KernelCase{Series: make(SliceSource, m+1)}
	shape := r.Intn(6)
	for id := range c.Series {
		vals := make([]float64, n)
		for i := range vals {
			switch shape {
			case 0: // all zero
			case 1: // constant
				vals[i] = 3.5
			case 2: // negative
				vals[i] = -1 - 10*r.Float64()
			case 3: // mixed sign
				vals[i] = r.NormFloat64() * 100
			default: // positive, the usual case
				vals[i] = 1 + 100*r.Float64()
			}
		}
		c.Series[id] = vals
	}
	for s := 1; s <= m; s++ {
		c.Sources = append(c.Sources, s)
	}
	if n > 0 {
		// Zero-sum steps, which the stability skips.
		for z := r.Intn(4); z > 0; z-- {
			i := r.Intn(n)
			for s := 1; s <= m; s++ {
				c.Series[s][i] = 0
			}
			if m > 1 && r.Intn(2) == 0 {
				c.Series[1][i], c.Series[2][i] = 7.25, -7.25
			}
		}
		switch r.Intn(8) {
		case 0:
			c.Series[r.Intn(m+1)][r.Intn(n)] = math.NaN()
		case 1:
			c.Series[r.Intn(m+1)][r.Intn(n)] = math.Inf(1 - 2*r.Intn(2))
		}
	}
	switch r.Intn(4) {
	case 0:
		c.HistoryLen = -r.Intn(2) // 0 or -1: whole history
	case 1:
		c.HistoryLen = n + 1 + r.Intn(5)
	default:
		c.HistoryLen = 1 + r.Intn(n+1)
	}

	c.Scheme = Scheme{Target: 0, Sources: c.Sources, K: r.NormFloat64()}
	c.Forecasts = c.Series[1:]
	c.Actual = c.Series[0]
	switch r.Intn(12) {
	case 0: // actuals shorter than the horizon
		c.Actual = c.Actual[:n/2]
	case 1: // and longer
		c.Actual = append(append([]float64(nil), c.Actual...), 1, 2, 3)
	case 2: // a forecast too few
		c.Forecasts = c.Forecasts[:m-1]
	case 3: // ragged forecasts
		if m > 1 && n > 0 {
			c.Forecasts = append([][]float64(nil), c.Forecasts...)
			c.Forecasts[m-1] = c.Forecasts[m-1][:n-1]
		}
	}
	return reflect.ValueOf(c)
}

// sameBits is bit equality with every NaN equal to every other.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkIndicatorsTwin holds both outputs of HistoricalIndicators for the
// scheme sources → node 0 to the materializing kernels: the same bits, and
// an error exactly where the historical error's oracle returned one.
func checkIndicatorsTwin(series SliceSource, sources []int, historyLen int) error {
	histErr, stab, err := HistoricalIndicators(series, 0, sources, historyLen)
	wantErr, wantE := OracleHistoricalError(series, 0, sources, historyLen)
	if !sameBits(histErr, wantErr) || (err == nil) != (wantE == nil) {
		return fmt.Errorf("historical error = %v, %v; oracle %v, %v", histErr, err, wantErr, wantE)
	}
	if wantStab := OracleWeightStability(series, 0, sources, historyLen); !sameBits(stab, wantStab) {
		return fmt.Errorf("stability = %v; oracle %v", stab, wantStab)
	}
	return nil
}

// TestKernelTwin holds the streaming kernels to the materializing ones:
// the same bits, and an error exactly where those returned one.
func TestKernelTwin(t *testing.T) {
	check := func(c KernelCase) bool {
		ok := true
		if err := checkIndicatorsTwin(c.Series, c.Sources, c.HistoryLen); err != nil {
			t.Error(err)
			ok = false
		}
		got, gotErr := c.Scheme.SMAPE(c.Actual, c.Forecasts)
		want, wantErr := oracleSchemeSMAPE(&c.Scheme, c.Actual, c.Forecasts)
		if !sameBits(got, want) || (gotErr == nil) != (wantErr == nil) {
			t.Errorf("Scheme.SMAPE = %v, %v; oracle %v, %v", got, gotErr, want, wantErr)
			ok = false
		}
		fc, gotErr := c.Scheme.Apply(c.Forecasts)
		wantFc, wantErr := oracleApply(&c.Scheme, c.Forecasts)
		if len(fc) != len(wantFc) || (gotErr == nil) != (wantErr == nil) {
			t.Errorf("Apply = %d values, %v; oracle %d values, %v", len(fc), gotErr, len(wantFc), wantErr)
			return false
		}
		for i := range fc {
			if !sameBits(fc[i], wantFc[i]) {
				t.Errorf("Apply[%d] = %v; oracle %v", i, fc[i], wantFc[i])
				ok = false
			}
		}
		if !ok {
			t.Logf("case: %d sources, %d observations, historyLen %d", len(c.Sources), len(c.Series[0]), c.HistoryLen)
		}
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}

// ApplyCase is one generated input for the ApplyTo differential: 1–6
// source forecasts of the value shapes a derivation can meet.
type ApplyCase struct {
	Scheme    Scheme
	Forecasts [][]float64
}

// Generate implements quick.Generator.
func (ApplyCase) Generate(r *rand.Rand, _ int) reflect.Value {
	m, h := 1+r.Intn(6), r.Intn(13)
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1, -1}
	c := ApplyCase{Scheme: Scheme{K: r.NormFloat64()}, Forecasts: make([][]float64, m)}
	switch r.Intn(5) {
	case 0:
		c.Scheme.K = 0
	case 1:
		c.Scheme.K = -1 - r.Float64()
	}
	for s := range c.Forecasts {
		c.Scheme.Sources = append(c.Scheme.Sources, s+1)
		fc := make([]float64, h)
		for i := range fc {
			if fc[i] = r.NormFloat64() * 100; r.Intn(6) == 0 {
				fc[i] = special[r.Intn(len(special))]
			}
		}
		c.Forecasts[s] = fc
	}
	switch r.Intn(10) {
	case 0: // ragged forecasts
		if h > 0 {
			s := r.Intn(m)
			c.Forecasts[s] = c.Forecasts[s][:h-1]
		}
	case 1: // a forecast too few
		c.Forecasts = c.Forecasts[:m-1]
	}
	return reflect.ValueOf(c)
}

// TestApplyToTwin holds the in-place derivation kernel to the materializing
// Apply it replaced: the same bits (every NaN equal to every other) into a
// dirty slice and into one that aliases the first source, and the same error
// text where that rejected its input.
func TestApplyToTwin(t *testing.T) {
	check := func(c ApplyCase) bool {
		want, wantErr := oracleApply(&c.Scheme, c.Forecasts)
		h := 0
		if len(c.Forecasts) > 0 {
			h = len(c.Forecasts[0])
		}
		dirty := make([]float64, h)
		for i := range dirty {
			dirty[i] = 42
		}
		aliased := append([][]float64(nil), c.Forecasts...)
		if len(aliased) > 0 {
			aliased[0] = append([]float64(nil), aliased[0]...)
		}
		for name, run := range map[string]func() ([]float64, error){
			"Apply":           func() ([]float64, error) { return c.Scheme.Apply(c.Forecasts) },
			"ApplyTo":         func() ([]float64, error) { return dirty, c.Scheme.ApplyTo(dirty, c.Forecasts) },
			"ApplyTo aliased": func() ([]float64, error) { return aliased[0], c.Scheme.ApplyTo(aliased[0], aliased) },
		} {
			if wantErr != nil && len(aliased) == 0 && name == "ApplyTo aliased" {
				continue // no source to alias
			}
			got, err := run()
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Errorf("%s: error %v, oracle %v", name, err, wantErr)
				return false
			}
			if err != nil {
				continue
			}
			if len(got) != len(want) {
				t.Errorf("%s: %d values, oracle %d", name, len(got), len(want))
				return false
			}
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Errorf("%s[%d] = %v, oracle %v (K %v, sources %v)", name, i, got[i], want[i], c.Scheme.K, c.Forecasts)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
	// The one rejection of its own: an output of the wrong length.
	sc := Scheme{Sources: []int{1}, K: 1}
	if err := sc.ApplyTo(make([]float64, 2), [][]float64{{1, 2, 3}}); err == nil || err.Error() != "derivation: output has length 2, want 3" {
		t.Fatalf("short output: %v", err)
	}
}

func TestSameIDSet(t *testing.T) {
	for _, c := range []struct {
		a    []int32
		b    []int
		want bool
	}{
		{nil, nil, false},
		{[]int32{1}, []int{1}, true},
		{[]int32{1, 2, 3}, []int{3, 1, 2}, true},
		{[]int32{1, 2}, []int{1, 2, 3}, false},
		{[]int32{1, 1, 2}, []int{1, 2, 2}, false},
		{[]int32{1, 1, 2}, []int{2, 1, 1}, true},
		{[]int32{1, 2}, []int{1, 4}, false},
	} {
		if got := sameIDSet(c.a, c.b); got != c.want {
			t.Errorf("sameIDSet(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
