package forecast

import (
	"math"
	"testing"

	"cubefc/internal/datasets"
	"cubefc/internal/timeseries"
)

// Warm-vs-cold equivalence tolerances (SMAPE is in [0, 1]). The fallback
// rule bounds in-sample regression, but warm and cold Nelder-Mead can land
// in different local minima whose out-of-sample errors differ either way —
// so the property is a hard per-series cap on catastrophic regression plus
// a tight bound on the mean regression across each dataset/family sweep.
const (
	warmSMAPETolSeries = 0.10
	warmSMAPETolMean   = 0.02
)

// warmFamilies returns the warm-startable families under test with fresh
// constructors per call.
func warmFamilies(period int) map[string]func() Model {
	fams := map[string]func() Model{
		"ses":  func() Model { return NewSES() },
		"holt": func() Model { return NewHolt(false) },
	}
	if period >= 2 {
		fams["hw-add"] = func() Model { return NewHoltWinters(period, Additive) }
	}
	return fams
}

// TestWarmVsColdEquivalence is the property test over the bundled datasets:
// fitting warm (seeded from a fit on a prefix of the series) must produce
// forecasts whose test-set SMAPE is within tolerance of a cold fit on the
// same training data.
func TestWarmVsColdEquivalence(t *testing.T) {
	for _, ds := range []*datasets.Dataset{datasets.Tourism(1), datasets.Sales(2)} {
		for name, mk := range warmFamilies(ds.Period) {
			checked := 0
			var meanDiff float64
			for _, b := range ds.Base {
				s := b.Series
				train, test := holdout(s)
				prefix := train.Slice(0, train.Len()-ds.Period)
				if prefix.Len() < 2*ds.Period+2 {
					continue
				}

				cold := mk()
				if cold.Fit(train) != nil {
					continue
				}
				warm := mk()
				if warm.Fit(prefix) != nil {
					continue
				}
				ws := warm.(WarmStarter)
				ws.WarmStart(ws.Params())
				if err := warm.Fit(train); err != nil {
					t.Fatalf("%s/%s: warm re-fit: %v", ds.Name, name, err)
				}

				coldS := timeseries.SMAPE(test.Values, forecastN(cold, test.Len()))
				warmS := timeseries.SMAPE(test.Values, forecastN(warm, test.Len()))
				if math.IsNaN(warmS) || warmS > coldS+warmSMAPETolSeries {
					t.Errorf("%s/%s series %v: warm SMAPE %.4f vs cold %.4f (tol %.2f)",
						ds.Name, name, b.Members, warmS, coldS, warmSMAPETolSeries)
				}
				meanDiff += warmS - coldS
				checked++
			}
			if checked == 0 {
				t.Fatalf("%s/%s: no series long enough to check", ds.Name, name)
			}
			if meanDiff /= float64(checked); meanDiff > warmSMAPETolMean {
				t.Errorf("%s/%s: mean warm SMAPE regression %.4f exceeds %.2f",
					ds.Name, name, meanDiff, warmSMAPETolMean)
			}
		}
	}
}

// TestSESWarmFallbackOnRegimeChange: an SES model warmed on a mean-reverting
// series (optimal alpha near the lower bound) and re-fitted on a strongly
// drifting series (optimal alpha near 1) must detect the minimizer pinning
// against its narrowed bracket and fall back to the cold full-bracket search.
func TestSESWarmFallbackOnRegimeChange(t *testing.T) {
	// Regime 1: constant level with alternating noise — heavy smoothing wins.
	calm := make([]float64, 60)
	for i := range calm {
		calm[i] = 100 + 5*float64(1-2*(i%2))
	}
	// Regime 2: big persistent level shifts — last-value tracking wins.
	shifty := make([]float64, 60)
	level := 100.0
	for i := range shifty {
		if i%5 == 0 {
			level += float64((i%3 - 1) * 40)
		}
		shifty[i] = level
	}

	m := NewSES()
	if err := m.Fit(timeseries.New(calm, 0)); err != nil {
		t.Fatal(err)
	}
	seed := m.Alpha
	if seed > 0.3 {
		t.Fatalf("calm-series alpha = %v, expected near the lower bound", seed)
	}
	m.WarmStart(m.Params())
	if err := m.Fit(timeseries.New(shifty, 0)); err != nil {
		t.Fatal(err)
	}
	if !m.fellBack || m.usedWarm {
		t.Fatalf("regime change did not trigger cold fallback (fellBack=%v usedWarm=%v alpha=%v)",
			m.fellBack, m.usedWarm, m.Alpha)
	}
	if m.Alpha < seed+sesWarmRadius {
		t.Fatalf("fallback alpha %v still inside the warm bracket around %v", m.Alpha, seed)
	}
}

// TestWarmStartUsedOnStationaryRefit: re-fitting on the same series from the
// previous optimum must take the warm path and land on (essentially) the
// same parameters as the cold fit.
func TestWarmStartUsedOnStationaryRefit(t *testing.T) {
	ds := datasets.Tourism(3)
	s := ds.Base[0].Series

	cold := NewHoltWinters(ds.Period, Additive)
	if err := cold.Fit(s); err != nil {
		t.Fatal(err)
	}
	warm := NewHoltWinters(ds.Period, Additive)
	if err := warm.Fit(s); err != nil {
		t.Fatal(err)
	}
	warm.WarmStart(warm.Params())
	if err := warm.Fit(s); err != nil {
		t.Fatal(err)
	}
	if !warm.usedWarm || warm.fellBack {
		t.Fatalf("stationary re-fit did not use the warm path (usedWarm=%v fellBack=%v)",
			warm.usedWarm, warm.fellBack)
	}
	if math.Abs(warm.Alpha-cold.Alpha) > 0.1 || math.Abs(warm.Gamma-cold.Gamma) > 0.1 {
		t.Fatalf("warm params (a=%v g=%v) far from cold (a=%v g=%v)",
			warm.Alpha, warm.Gamma, cold.Alpha, cold.Gamma)
	}
}

// TestWarmSeedConsumedOnce: the seed is one-shot — the fit after a warm fit
// starts cold again and must reproduce the plain cold fit exactly.
func TestWarmSeedConsumedOnce(t *testing.T) {
	ds := datasets.Tourism(4)
	s := ds.Base[1].Series

	m := NewHoltWinters(ds.Period, Additive)
	if err := m.Fit(s); err != nil {
		t.Fatal(err)
	}
	m.WarmStart(m.Params())
	if err := m.Fit(s); err != nil { // consumes the seed
		t.Fatal(err)
	}
	if err := m.Fit(s); err != nil { // must be cold again
		t.Fatal(err)
	}
	if m.usedWarm {
		t.Fatal("third fit reused a consumed warm seed")
	}
	cold := NewHoltWinters(ds.Period, Additive)
	if err := cold.Fit(s); err != nil {
		t.Fatal(err)
	}
	if m.Alpha != cold.Alpha || m.Beta != cold.Beta || m.Gamma != cold.Gamma {
		t.Fatalf("post-warm cold fit (%v %v %v) != plain cold fit (%v %v %v)",
			m.Alpha, m.Beta, m.Gamma, cold.Alpha, cold.Beta, cold.Gamma)
	}
}

// TestWarmStartRejectsBadSeeds: mismatched or non-finite seeds must be
// ignored (cold fit), never panic.
func TestWarmStartRejectsBadSeeds(t *testing.T) {
	ds := datasets.Tourism(5)
	s := ds.Base[2].Series
	for _, seed := range [][]float64{nil, {}, {0.5}, {0.1, 0.2, 0.3, 0.4}, {math.NaN(), 0.1, 0.2}, {math.Inf(1), 0.1, 0.2}} {
		m := NewHoltWinters(ds.Period, Additive)
		m.WarmStart(seed)
		if err := m.Fit(s); err != nil {
			t.Fatalf("seed %v: %v", seed, err)
		}
		if m.usedWarm {
			t.Fatalf("seed %v was accepted as a warm start", seed)
		}
	}
}

// TestCloneIndependence: CloneModel must produce a model whose state does
// not alias the original, for every family.
func TestCloneIndependence(t *testing.T) {
	ds := datasets.Tourism(6)
	s := ds.Base[3].Series
	for _, m := range allModels(ds.Period) {
		if err := m.Fit(s); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		c := m.CloneModel()
		wantFC := forecastN(m, 4)
		gotFC := forecastN(c, 4)
		for i := range wantFC {
			if wantFC[i] != gotFC[i] {
				t.Fatalf("%s: clone forecast %v != original %v", m.Name(), gotFC, wantFC)
			}
		}
		// Mutate the clone heavily; the original's forecasts must not move.
		for i := 0; i < 10; i++ {
			c.Update(1e6)
		}
		after := forecastN(m, 4)
		for i := range wantFC {
			if wantFC[i] != after[i] {
				t.Fatalf("%s: mutating the clone changed the original (%v -> %v)",
					m.Name(), wantFC, after)
			}
		}
	}
}

// TestWarmFitZeroAllocs is the allocation-regression gate of the tentpole:
// steady-state warm fits of the smoothing models must not allocate.
func TestWarmFitZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ds := datasets.Tourism(7)
	s := ds.Base[4].Series

	t.Run("hw-add", func(t *testing.T) {
		m := NewHoltWinters(ds.Period, Additive)
		if err := m.Fit(s); err != nil {
			t.Fatal(err)
		}
		seed := m.Params()
		m.WarmStart(seed)
		if err := m.Fit(s); err != nil { // warm the machinery
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			m.WarmStart(seed)
			if err := m.Fit(s); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("warm Holt-Winters fit allocates %v per run, want 0", allocs)
		}
	})
	t.Run("ses", func(t *testing.T) {
		m := NewSES()
		if err := m.Fit(s); err != nil {
			t.Fatal(err)
		}
		seed := m.Params()
		m.WarmStart(seed)
		if err := m.Fit(s); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			m.WarmStart(seed)
			if err := m.Fit(s); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("warm SES fit allocates %v per run, want 0", allocs)
		}
	})
	t.Run("holt", func(t *testing.T) {
		m := NewHolt(false)
		if err := m.Fit(s); err != nil {
			t.Fatal(err)
		}
		seed := m.Params()
		m.WarmStart(seed)
		if err := m.Fit(s); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			m.WarmStart(seed)
			if err := m.Fit(s); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("warm Holt fit allocates %v per run, want 0", allocs)
		}
	})
}
