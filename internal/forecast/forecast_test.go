package forecast

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cubefc/internal/timeseries"
)

// seasonalSeries builds level + slope·t + amp·sin season + optional noise.
func seasonalSeries(n, period int, level, slope, amp, noiseStd float64, seed int64) *timeseries.Series {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	for t := range vals {
		season := amp * math.Sin(2*math.Pi*float64(t%period)/float64(period))
		vals[t] = level + slope*float64(t) + season + rng.NormFloat64()*noiseStd
	}
	return timeseries.New(vals, period)
}

// allModels returns one unfitted instance of every model family and
// variant, the seasonal ones at period.
func allModels(period int) []Model {
	return []Model{
		NewNaive(), NewSES(), NewHolt(false), NewHolt(true),
		NewHoltWinters(period, Additive), NewHoltWinters(period, Multiplicative),
		NewTheta(period),
	}
}

// forecastN returns m's forecasts for horizons 1..h in a fresh slice.
func forecastN(m Model, h int) []float64 {
	out := make([]float64, h)
	m.Forecast(out)
	return out
}

// TestForecastAllocs: every family writes its forecast into the caller's
// slice and allocates nothing of its own.
func TestForecastAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := seasonalSeries(48, 4, 100, 0.5, 10, 1, 1)
	out := make([]float64, 12)
	for _, m := range allModels(4) {
		if err := m.Fit(s); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() { m.Forecast(out) }); n != 0 {
			t.Errorf("%s: Forecast allocates %v times, want 0", m.Name(), n)
		}
	}
}

// holdout splits s into its first 80 % (rounded) for training and the rest
// for testing, the paper's ratio (Section VI-A).
func holdout(s *timeseries.Series) (train, test *timeseries.Series) {
	cut := int(math.Round(0.8 * float64(s.Len())))
	return s.Slice(0, cut), s.Slice(cut, s.Len())
}

func TestNaive(t *testing.T) {
	m := NewNaive()
	if m.Fitted() {
		t.Fatal("unfitted model reports Fitted")
	}
	if err := m.Fit(timeseries.New([]float64{1, 2, 7}, 0)); err != nil {
		t.Fatal(err)
	}
	fc := forecastN(m, 3)
	for _, v := range fc {
		if v != 7 {
			t.Fatalf("naive forecast = %v, want all 7", fc)
		}
	}
	m.Update(9)
	if forecastN(m, 1)[0] != 9 {
		t.Fatal("naive Update not applied")
	}
}

func TestNaiveTooShort(t *testing.T) {
	if err := NewNaive().Fit(timeseries.New(nil, 0)); !errors.Is(err, ErrTooShort) {
		t.Fatalf("err = %v, want ErrTooShort", err)
	}
}

func TestSESConstantSeries(t *testing.T) {
	m := NewSES()
	if err := m.Fit(timeseries.New([]float64{5, 5, 5, 5, 5}, 0)); err != nil {
		t.Fatal(err)
	}
	if math.Abs(forecastN(m, 3)[2]-5) > 1e-9 {
		t.Fatalf("SES constant forecast = %v", forecastN(m, 3))
	}
}

func TestSESTracksLevelShift(t *testing.T) {
	vals := make([]float64, 60)
	for i := range vals {
		if i < 30 {
			vals[i] = 10
		} else {
			vals[i] = 20
		}
	}
	m := NewSES()
	if err := m.Fit(timeseries.New(vals, 0)); err != nil {
		t.Fatal(err)
	}
	if fc := forecastN(m, 1)[0]; math.Abs(fc-20) > 1 {
		t.Fatalf("SES after level shift forecasts %v, want ≈20", fc)
	}
}

func TestHoltLinearTrend(t *testing.T) {
	vals := make([]float64, 40)
	for i := range vals {
		vals[i] = 3 + 2*float64(i)
	}
	m := NewHolt(false)
	if err := m.Fit(timeseries.New(vals, 0)); err != nil {
		t.Fatal(err)
	}
	fc := forecastN(m, 3)
	for i, want := range []float64{3 + 2*40, 3 + 2*41, 3 + 2*42} {
		if math.Abs(fc[i]-want) > 0.5 {
			t.Fatalf("Holt forecast = %v, want ≈%v at h=%d", fc, want, i+1)
		}
	}
}

func TestHoltDampedFlattens(t *testing.T) {
	vals := make([]float64, 40)
	for i := range vals {
		vals[i] = float64(i)
	}
	m := NewHolt(true)
	if err := m.Fit(timeseries.New(vals, 0)); err != nil {
		t.Fatal(err)
	}
	fc := forecastN(m, 100)
	growthLate := fc[99] - fc[98]
	growthEarly := fc[1] - fc[0]
	if growthLate >= growthEarly {
		t.Fatalf("damped Holt should flatten: early %v late %v", growthEarly, growthLate)
	}
}

func TestHoltTooShort(t *testing.T) {
	if err := NewHolt(false).Fit(timeseries.New([]float64{1, 2}, 0)); !errors.Is(err, ErrTooShort) {
		t.Fatalf("err = %v", err)
	}
}

func TestHoltWintersAdditive(t *testing.T) {
	s := seasonalSeries(48, 4, 100, 0.5, 10, 0, 1)
	m := NewHoltWinters(4, Additive)
	if err := m.Fit(s); err != nil {
		t.Fatal(err)
	}
	fc := forecastN(m, 4)
	for i := 0; i < 4; i++ {
		tIdx := 48 + i
		want := 100 + 0.5*float64(tIdx) + 10*math.Sin(2*math.Pi*float64(tIdx%4)/4)
		if math.Abs(fc[i]-want) > 2 {
			t.Fatalf("HW-add h=%d forecast %v, want ≈%v", i+1, fc[i], want)
		}
	}
}

func TestHoltWintersMultiplicative(t *testing.T) {
	vals := make([]float64, 48)
	for i := range vals {
		season := 1 + 0.3*math.Sin(2*math.Pi*float64(i%4)/4)
		vals[i] = (50 + float64(i)) * season
	}
	m := NewHoltWinters(4, Multiplicative)
	if err := m.Fit(timeseries.New(vals, 4)); err != nil {
		t.Fatal(err)
	}
	fc := forecastN(m, 4)
	for i := 0; i < 4; i++ {
		tIdx := 48 + i
		want := (50 + float64(tIdx)) * (1 + 0.3*math.Sin(2*math.Pi*float64(tIdx%4)/4))
		if math.Abs(fc[i]-want)/want > 0.1 {
			t.Fatalf("HW-mult h=%d forecast %v, want ≈%v", i+1, fc[i], want)
		}
	}
}

func TestHoltWintersMultiplicativeRejectsNonPositive(t *testing.T) {
	vals := []float64{1, 2, 0, 4, 5, 6, 7, 8, 9, 10, 11}
	if err := NewHoltWinters(2, Multiplicative).Fit(timeseries.New(vals, 2)); err == nil {
		t.Fatal("multiplicative HW on non-positive data should fail")
	}
}

func TestHoltWintersTooShort(t *testing.T) {
	if err := NewHoltWinters(12, Additive).Fit(seasonalSeries(20, 12, 10, 0, 1, 0, 1)); !errors.Is(err, ErrTooShort) {
		t.Fatal("HW needs two full seasons")
	}
	if err := NewHoltWinters(1, Additive).Fit(seasonalSeries(20, 1, 10, 0, 1, 0, 1)); !errors.Is(err, ErrTooShort) {
		t.Fatal("HW needs period >= 2")
	}
}

func TestHoltWintersUpdateMatchesRefit(t *testing.T) {
	// Updating with k new values must keep the same state trajectory as
	// replaying the recurrence over the longer series with equal params.
	s := seasonalSeries(40, 4, 100, 0.5, 10, 0.5, 2)
	m := NewHoltWinters(4, Additive)
	if err := m.Fit(s.Slice(0, 36)); err != nil {
		t.Fatal(err)
	}
	for _, v := range s.Values[36:] {
		m.Update(v)
	}
	m2 := &HoltWinters{Period: 4, Mode: Additive, Alpha: m.Alpha, Beta: m.Beta, Gamma: m.Gamma}
	season := make([]float64, 4)
	_, level, trend := m2.hwReplay(s.Values, m.Alpha, m.Beta, m.Gamma, season, math.Inf(1))
	if math.Abs(level-m.Level) > 1e-9 || math.Abs(trend-m.Trend) > 1e-9 {
		t.Fatalf("Update state (l=%v b=%v) != replay state (l=%v b=%v)", m.Level, m.Trend, level, trend)
	}
}

func TestSESUpdateMatchesRecurrence(t *testing.T) {
	m := NewSES()
	if err := m.Fit(timeseries.New([]float64{1, 2, 3, 4, 5}, 0)); err != nil {
		t.Fatal(err)
	}
	level := m.Level
	m.Update(10)
	want := m.Alpha*10 + (1-m.Alpha)*level
	if math.Abs(m.Level-want) > 1e-12 {
		t.Fatalf("SES Update level = %v, want %v", m.Level, want)
	}
}

// TestFitDegenerateSeriesFinite: on series no optimizer likes, every family
// either refuses to fit or forecasts, estimates its residual spread and
// updates in finite numbers. Magnitudes stop at 1e150: near 1e300 the squared
// residuals overflow and most families report ResidualStd = +Inf (not NaN),
// which turns WITH INTERVAL bounds into ±Inf — a known limit, not covered.
func TestFitDegenerateSeriesFinite(t *testing.T) {
	const period = 4
	fill := func(n int, f func(i int) float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = f(i)
		}
		return v
	}
	series := map[string]*timeseries.Series{
		"constant":    timeseries.New(fill(24, func(int) float64 { return 7 }), period),
		"all zero":    timeseries.New(fill(24, func(int) float64 { return 0 }), period),
		"negative":    timeseries.New(fill(24, func(i int) float64 { return -100 - float64(i%period) }), period),
		"alternating": timeseries.New(fill(24, func(i int) float64 { return float64(i%2) * 1e6 }), period),
		"near 1e150":  timeseries.New(fill(24, func(i int) float64 { return 1e150 * (1 + 0.1*float64(i%period)) }), period),
		"length 1":    timeseries.New([]float64{5}, period),
		"length 3":    timeseries.New([]float64{1, 2, 3}, period),
	}
	finite := func(vs ...float64) bool {
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	for sname, s := range series {
		for _, m := range allModels(period) {
			if m.Fit(s) != nil {
				continue
			}
			fc := forecastN(m, 3)
			var std float64
			if u, ok := m.(Uncertainty); ok {
				std = u.ResidualStd()
			}
			m.Update(1)
			after := forecastN(m, 1)
			if !finite(append(append(fc, std), after...)...) {
				t.Errorf("%s on %s: Forecast(3) = %v, ResidualStd = %v, Forecast(1) after Update = %v",
					m.Name(), sname, fc, std, after)
			}
		}
	}
}

// TestGobRoundTripAllModels: the binary codec reloads every family exactly
// as a gob round trip of the same model does — the fields gob carried,
// bit for bit, and none of the fit-time scratch — and the reload forecasts
// like the original.
func TestGobRoundTripAllModels(t *testing.T) {
	s := seasonalSeries(48, 4, 100, 0.5, 10, 0.5, 7)
	for _, m := range allModels(4) {
		if err := m.Fit(s); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(m); err != nil {
			t.Fatalf("%s gob encode: %v", m.Name(), err)
		}
		viaGob := reflect.New(reflect.TypeOf(m).Elem()).Interface().(Model)
		if err := gob.NewDecoder(&buf).Decode(viaGob); err != nil {
			t.Fatalf("%s gob decode: %v", m.Name(), err)
		}
		img, err := m.AppendBinary(nil)
		if err != nil {
			t.Fatalf("%s encode: %v", m.Name(), err)
		}
		back, err := DecodeModel(img)
		if err != nil {
			t.Fatalf("%s decode: %v", m.Name(), err)
		}
		if !reflect.DeepEqual(back, viaGob) {
			t.Fatalf("%s: binary reload %+v, gob reload %+v", m.Name(), back, viaGob)
		}
		if !reflect.DeepEqual(back, m.CloneModel()) {
			t.Fatalf("%s: binary reload %+v is not the model's clone", m.Name(), back)
		}
		a, b := forecastN(m, 5), forecastN(back, 5)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: forecast changed after the round trip: %v vs %v", m.Name(), a, b)
			}
		}
	}
}

// TestDecodeModelRefusesUnsafeState: a well-formed encoding of a state
// Forecast would panic on — a period below 1, a seasonal state of another
// length, a negative observation count — is refused, and so are a cut
// encoding and trailing bytes.
func TestDecodeModelRefusesUnsafeState(t *testing.T) {
	s := seasonalSeries(48, 4, 100, 0.5, 10, 0.5, 7)
	hw, th := NewHoltWinters(4, Additive), NewTheta(4)
	for _, m := range []Model{hw, th} {
		if err := m.Fit(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name   string
		m      Model
		mutate func(Model)
	}{
		{"hw period 0", hw, func(m Model) { m.(*HoltWinters).Period, m.(*HoltWinters).Season = 0, nil }},
		{"hw season shorter than period", hw, func(m Model) { m.(*HoltWinters).Season = hw.Season[:3] }},
		{"hw negative count", hw, func(m Model) { m.(*HoltWinters).T = -1 }},
		{"theta period 0", th, func(m Model) { m.(*Theta).Period = 0 }},
		{"theta profile of another length", th, func(m Model) { m.(*Theta).Period = 3 }},
		{"theta negative count", th, func(m Model) { m.(*Theta).N = -2 }},
	} {
		m := c.m.CloneModel()
		c.mutate(m)
		img, err := m.AppendBinary(nil)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		if _, err := DecodeModel(img); err == nil {
			t.Errorf("%s: decoded", c.name)
		}
	}
	img, err := hw.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeModel(img); err != nil {
		t.Fatalf("the fitted model is refused: %v", err)
	}
	for _, bad := range [][]byte{img[:len(img)-1], append(img[:len(img):len(img)], 0), {}, {99}} {
		if _, err := DecodeModel(bad); err == nil {
			t.Errorf("%d bytes decoded", len(bad))
		}
	}
}

// FuzzDecodeModel: DecodeModel never panics, an accepted input re-encodes
// to its own bytes, and the model it yields forecasts and updates without
// panicking. Seeded with a fitted model of every family.
func FuzzDecodeModel(f *testing.F) {
	s := seasonalSeries(48, 4, 100, 0.5, 10, 0.5, 7)
	for _, m := range allModels(4) {
		if err := m.Fit(s); err != nil {
			f.Fatal(err)
		}
		img, err := m.AppendBinary(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeModel(data)
		if err != nil {
			return
		}
		again, err := m.AppendBinary(nil)
		if err != nil {
			t.Fatalf("an accepted %s model does not re-encode: %v", m.Name(), err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("%s re-encodes to other bytes:\n in  %x\n out %x", m.Name(), data, again)
		}
		out := make([]float64, 3)
		m.Forecast(out)
		m.Update(1)
		m.Forecast(out)
	})
}

func TestModelsImproveOnNaiveForStructuredData(t *testing.T) {
	// Property-style check: on clean seasonal data with trend, HW must
	// beat the plain naive forecast.
	s := seasonalSeries(60, 6, 200, 1, 30, 2, 8)
	train, test := holdout(s)
	smape := func(m Model) float64 {
		if err := m.Fit(train); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		return timeseries.SMAPE(test.Values, forecastN(m, test.Len()))
	}
	hwErr, nvErr := smape(NewHoltWinters(s.Period, Additive)), smape(NewNaive())
	if hwErr >= nvErr {
		t.Fatalf("HW (%v) should beat naive (%v) on seasonal data", hwErr, nvErr)
	}
}
