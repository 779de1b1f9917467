package cube

import (
	"math"
	"sync"
)

// SampleConfig tunes the reservoir-sampled series estimator.
type SampleConfig struct {
	// K is the reservoir size: how many covered base series are sampled
	// per estimated node.
	K int
	// ExactThreshold is the population size at or below which the
	// estimator falls back to the exact aggregate (materializing the
	// node): sampling a node that covers barely more bases than the
	// reservoir holds costs nearly as much as computing it exactly, and
	// the exact fallback is what makes sampled results converge to exact
	// ones as K grows. <= 0 defaults to 2·K.
	ExactThreshold int
	// Seed drives the deterministic per-node reservoir: node id's
	// reservoir is drawn from a generator seeded with Seed ⊕ mix(id), so
	// repeated runs (and concurrent computations) see identical samples.
	Seed int64
}

func (c SampleConfig) withDefaults() SampleConfig {
	if c.K <= 0 {
		c.K = 64
	}
	if c.ExactThreshold <= 0 {
		c.ExactThreshold = 2 * c.K
	}
	return c
}

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
	if pop <= s.cfg.K || pop <= s.cfg.ExactThreshold {
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
	rng := splitMix64(uint64(s.cfg.Seed) ^ mix64(uint64(id)))
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
		j := i + int(rng.next()%uint64(pop-i))
		pi, pj := pos(i), pos(j)
		swap[i], swap[j] = pj, pi
		res[i] = s.g.BaseIDs[inc[pj]]
	}
	sortInts(res)
	return res
}

// MeanRelStd reports the mean relative standard error across all sampled
// (non-exact) estimates served so far — the basis of the advisor's
// reported sampling error bound. Zero when everything was exact.
func (s *SampledSource) MeanRelStd() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.relN == 0 {
		return 0
	}
	return s.relSum / float64(s.relN)
}

// Sampled reports how many node estimates were served from a reservoir
// (as opposed to the exact fallback).
func (s *SampledSource) Sampled() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.relN
}

// splitMix64 is the SplitMix64 generator — tiny, fast, and deterministic
// across platforms; used only for reservoir draws.
type splitMix64 uint64

func (s *splitMix64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// mix64 finalizes an integer into a well-spread 64-bit value so per-node
// seeds differ even for adjacent IDs.
func mix64(x uint64) uint64 {
	s := splitMix64(x)
	return s.next()
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
