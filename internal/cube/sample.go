package cube

import (
	"math"
	"sync"
)

// SampleConfig tunes the reservoir-sampled series estimator.
type SampleConfig struct {
	// K is the reservoir size: how many covered base series are sampled
	// per estimated node (<= 0 defaults to 64).
	K int
	// Seed drives the deterministic per-node reservoir: node id's
	// reservoir is drawn from a generator seeded with Seed ⊕ mix(id), so
	// repeated runs (and concurrent computations) see identical samples.
	Seed int64
}

func (c SampleConfig) withDefaults() SampleConfig {
	if c.K <= 0 {
		c.K = 64
	}
	return c
}

// ExactUpTo is the population size up to which a sample of k is not drawn
// and the exact value is computed instead: sampling a population barely
// larger than the sample costs nearly as much as reading all of it, and the
// exact answer below the line is what makes sampled results converge to
// exact ones as k grows. The reservoir estimator applies it to a node's
// covered base series, the advisor to a scheme's source set.
func ExactUpTo(k int) int { return 2 * k }

// SampledSource estimates node series from a reservoir sample of the
// covered base series instead of materializing the full aggregate: the
// estimate scales the sample sum by N/K (Horvitz–Thompson under uniform
// sampling without replacement). Base nodes and nodes whose population is
// at or below the exact threshold are answered exactly. Estimates are
// cached per node; the cache (and the relative-error accounting) is safe
// for concurrent use.
//
// A SampledSource is pinned to the graph length at which it was created —
// create a fresh one after Advance.
type SampledSource struct {
	g   *Graph
	cfg SampleConfig

	mu     sync.Mutex
	cache  map[int][]float64
	relSum float64 // Σ of per-estimate relative standard errors
	relN   int     // number of non-exact estimates
}

// NewSampledSource returns a sampling estimator over the graph. It
// satisfies derivation.SeriesSource, so derivation weights, historical
// errors and indicators computed through it become sampled estimates.
func NewSampledSource(g *Graph, cfg SampleConfig) *SampledSource {
	return &SampledSource{g: g, cfg: cfg.withDefaults(), cache: make(map[int][]float64)}
}

// NodeValues returns the node's series values — exact for base nodes and
// small populations, a reservoir-sampled estimate otherwise. The
// exact-vs-sampled decision depends only on the population size, never on
// whether the node happens to be materialized, so results are
// deterministic across runs.
func (s *SampledSource) NodeValues(id int) []float64 {
	pop := s.g.CoveredBaseCount(id)
	if pop <= ExactUpTo(s.cfg.K) {
		return s.g.Node(id).Series.Values
	}
	s.mu.Lock()
	if est, ok := s.cache[id]; ok {
		s.mu.Unlock()
		return est
	}
	s.mu.Unlock()

	est, rel := s.estimate(id, pop)

	s.mu.Lock()
	if prev, ok := s.cache[id]; ok {
		// Another goroutine estimated concurrently; both computed the
		// same deterministic values, keep the first.
		s.mu.Unlock()
		return prev
	}
	s.cache[id] = est
	s.relSum += rel
	s.relN++
	s.mu.Unlock()
	return est
}

// estimate draws the node's reservoir and builds the scaled estimate plus
// its relative standard error.
func (s *SampledSource) estimate(id, pop int) ([]float64, float64) {
	bases := s.sampleBases(id, pop)
	length := s.g.Length
	k := len(bases)
	scale := float64(pop) / float64(k)

	est := make([]float64, length)
	mean := make([]float64, length)
	m2 := make([]float64, length) // running Σ (x - mean)² via Welford
	for i, bid := range bases {
		bv := s.g.Node(bid).Series.Values
		cnt := float64(i + 1)
		for t := 0; t < length; t++ {
			v := bv[t]
			est[t] += v
			d := v - mean[t]
			mean[t] += d / cnt
			m2[t] += d * (v - mean[t])
		}
	}
	// Relative standard error of the scaled total: per step,
	// Var(N·x̄) = N²·(s²/K)·(1 − K/N) (finite-population correction);
	// aggregated over the series as √Σvar / √Σest².
	var varAcc, sqAcc float64
	fpc := 1 - float64(k)/float64(pop)
	for t := 0; t < length; t++ {
		est[t] *= scale
		if k > 1 {
			sv := m2[t] / float64(k-1)
			varAcc += float64(pop) * float64(pop) * sv / float64(k) * fpc
		}
		sqAcc += est[t] * est[t]
	}
	rel := 0.0
	if sqAcc > 0 {
		rel = math.Sqrt(varAcc) / math.Sqrt(sqAcc)
	}
	return est, rel
}

// sampleBases draws K distinct covered bases of the node by a partial
// Fisher–Yates shuffle over the incidence positions — O(K) time regardless
// of population size, deterministically seeded per node — and returns them
// in ascending base-ID order so the estimate's accumulation order is
// fixed.
func (s *SampledSource) sampleBases(id, pop int) []int {
	k := s.cfg.K
	rng := SplitMix64(uint64(s.cfg.Seed) ^ mix64(uint64(id)))
	inc := s.g.inc(id)
	res := make([]int, k)
	swap := make(map[int]int, k)
	pos := func(i int) int {
		if v, ok := swap[i]; ok {
			return v
		}
		return i
	}
	for i := 0; i < k; i++ {
		j := i + int(rng.Next()%uint64(pop-i))
		pi, pj := pos(i), pos(j)
		swap[i], swap[j] = pj, pi
		res[i] = s.g.BaseIDs[inc[pj]]
	}
	sortInts(res)
	return res
}

// MeanRelStd reports the mean relative standard error across all sampled
// (non-exact) estimates served so far — the advisor's reported series
// error. Zero when everything was exact, and for a nil source, which has
// estimated nothing.
func (s *SampledSource) MeanRelStd() float64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.relN == 0 {
		return 0
	}
	return s.relSum / float64(s.relN)
}

// SplitMix64 is the SplitMix64 generator — tiny, fast, and deterministic
// across platforms; it drives every sampling draw (reservoirs here, the
// PPS source draw in derivation). The value is the stream's seed.
type SplitMix64 uint64

// Next returns the stream's next output.
func (s *SplitMix64) Next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// mix64 finalizes an integer into a well-spread 64-bit value so per-node
// seeds differ even for adjacent IDs.
func mix64(x uint64) uint64 {
	s := SplitMix64(x)
	return s.Next()
}

// sortInts is a tiny insertion sort: reservoirs are small (K entries) and
// mostly ordered, where insertion sort beats sort.Ints and allocates
// nothing.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
