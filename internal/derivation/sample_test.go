package derivation

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cubefc/internal/cube"
	"cubefc/internal/datasets"
	"cubefc/internal/timeseries"
)

// flatGraph builds a one-level cube: n base cities under ALL, with
// deterministic pseudo-random positive histories.
func flatGraph(t *testing.T, seed int64, n, length int) *cube.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	base := make([]cube.BaseSeries, n)
	for i := range base {
		vals := make([]float64, length)
		level := 10 + 90*rng.Float64()
		for ti := range vals {
			vals[ti] = level * (1 + 0.2*rng.NormFloat64())
			if vals[ti] < 0.1 {
				vals[ti] = 0.1
			}
		}
		base[i] = cube.BaseSeries{
			Members: []string{cityName(i)},
			Series:  timeseries.New(vals, 4),
		}
	}
	g, err := cube.NewGraph([]cube.Dimension{cube.NewDimension("city", "city")}, base)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func cityName(i int) string { return "C" + string(rune('A'+i/26)) + string(rune('A'+i%26)) }

// sourceForecasts fabricates one forecast per source, proportional to the
// source's history level plus noise — the regime the sampled derivation is
// built for.
func sourceForecasts(rng *rand.Rand, g *cube.Graph, sources []int, h int) map[int][]float64 {
	out := make(map[int][]float64, len(sources))
	for _, s := range sources {
		mean := g.Node(s).Series.Mean()
		fc := make([]float64, h)
		for t := range fc {
			fc[t] = mean * (1 + 0.1*rng.NormFloat64())
		}
		out[s] = fc
	}
	return out
}

func gather(fcBy map[int][]float64, sources []int) [][]float64 {
	out := make([][]float64, len(sources))
	for i, s := range sources {
		out[i] = fcBy[s]
	}
	return out
}

// TestSampledSchemePropertyQuick checks, for random instances, the
// deterministic invariant of the sampled construction: the Horvitz–Thompson
// weights reproduce the target's history sum exactly — Σᵢ wᵢ·hᵢ = h_t —
// which is what makes the estimate unbiased and drives convergence as
// SampleSize grows toward the population. It holds on both sides of
// cube.ExactUpTo, the line below which the advisor derives exactly instead
// of calling NewSampledScheme (pop = 2·20 and pop > 2·8), and the scheme is
// classified from the full source set, like the exact one.
func TestSampledSchemePropertyQuick(t *testing.T) {
	prop := func(rawSeed int64) bool {
		seed := rawSeed % (1 << 30)
		g := flatGraph(t, seed, 40, 24)
		sources := g.BaseIDs
		top := g.TopID
		exact, err := NewScheme(g, top, sources, 20)
		if err != nil {
			return false
		}
		var ht float64
		for _, v := range g.Node(top).Series.Values[:20] {
			ht += v
		}
		for _, k := range []int{20, 8} {
			sd, err := NewSampledScheme(g, g, top, sources, 20, SampleOptions{SampleSize: k, Seed: seed})
			if err != nil || sd.Scheme.Kind != exact.Kind || len(sd.Scheme.Sources) > k {
				return false
			}
			var whSum float64
			for i, s := range sd.Scheme.Sources {
				var h float64
				for _, v := range g.Node(s).Series.Values[:20] {
					h += v
				}
				whSum += sd.Scheme.Weights[i] * h
			}
			if math.Abs(whSum-ht) > 1e-6*math.Abs(ht) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSampledSchemeConverges verifies that the sampled derivation
// converges to the exact one as the sample grows: across many seeds, the
// mean relative deviation from the exact forecast shrinks when SampleSize
// quadruples, and again when it reaches the population size. (It never hits
// zero: the draw is with replacement. Exactness at small populations is the
// caller's choice, cube.ExactUpTo.)
func TestSampledSchemeConverges(t *testing.T) {
	g := flatGraph(t, 99, 120, 24)
	sources := g.BaseIDs
	top := g.TopID
	rng := rand.New(rand.NewSource(100))
	fcBy := sourceForecasts(rng, g, sources, 6)
	exact, err := NewScheme(g, top, sources, 20)
	if err != nil {
		t.Fatal(err)
	}
	exactFc, err := exact.Apply(gather(fcBy, exact.Sources))
	if err != nil {
		t.Fatal(err)
	}

	meanDev := func(sampleSize int) float64 {
		var dev, n float64
		for seed := int64(0); seed < 40; seed++ {
			sd, err := NewSampledScheme(g, g, top, sources, 20, SampleOptions{SampleSize: sampleSize, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			fc, err := sd.Scheme.Apply(gather(fcBy, sd.Scheme.Sources))
			if err != nil {
				t.Fatal(err)
			}
			for i := range fc {
				if exactFc[i] != 0 {
					dev += math.Abs(fc[i]-exactFc[i]) / math.Abs(exactFc[i])
					n++
				}
			}
		}
		return dev / n
	}

	dev10, dev40, devPop := meanDev(10), meanDev(40), meanDev(len(sources))
	if dev40 >= dev10 || devPop >= dev40 {
		t.Fatalf("sampled derivation not converging: dev(K=10)=%.4f dev(K=40)=%.4f dev(K=%d)=%.4f", dev10, dev40, len(sources), devPop)
	}
}

// TestSampledBoundCoverage checks the bound semantics on the synthetic
// generator's cubes: across many independent draws, the reported interval
// contains the exact derived value at least roughly at the 0.95
// confidence (the ratio-estimator construction makes the interval
// conservative in the correlated-forecast regime, so observed coverage
// typically exceeds it).
func TestSampledBoundCoverage(t *testing.T) {
	d := datasets.GenCube(17, datasets.CubeGenOptions{DimCards: [][]int{{150, 10}}, Length: 30, Period: 4})
	g, err := d.Graph()
	if err != nil {
		t.Fatal(err)
	}
	sources := g.BaseIDs
	top := g.TopID
	rng := rand.New(rand.NewSource(18))
	fcBy := sourceForecasts(rng, g, sources, 6)
	exact, err := NewScheme(g, top, sources, 24)
	if err != nil {
		t.Fatal(err)
	}
	exactFc, err := exact.Apply(gather(fcBy, exact.Sources))
	if err != nil {
		t.Fatal(err)
	}

	var covered, total int
	for seed := int64(0); seed < 100; seed++ {
		sd, err := NewSampledScheme(g, g, top, sources, 24, SampleOptions{SampleSize: 30, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		_, lo, hi, err := sd.ApplyWithBound(gather(fcBy, sd.Scheme.Sources))
		if err != nil {
			t.Fatal(err)
		}
		for i := range exactFc {
			total++
			if exactFc[i] >= lo[i] && exactFc[i] <= hi[i] {
				covered++
			}
		}
	}
	coverage := float64(covered) / float64(total)
	if coverage < 0.85 {
		t.Fatalf("bound coverage %.3f below tolerance for 0.95 confidence", coverage)
	}
}
