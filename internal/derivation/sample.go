// FlashP-style sampled derivation: the forecast of an aggregate target is
// derived from a weighted sample of its sources instead of all of them,
// together with a sampling error bound. Sources are drawn with probability
// proportional to a cheap size proxy (their covered-base count, available
// without materializing anything) with replacement, and each sampled
// source is inflated by its Horvitz–Thompson weight, so the weighted sum
// is an unbiased estimate of the full source sum. The per-step variance
// across the draws yields a confidence interval around the derived
// forecast.
package derivation

import (
	"fmt"
	"math"

	"cubefc/internal/cube"
	"cubefc/internal/optimize"
)

// SampleOptions tunes NewSampledScheme.
type SampleOptions struct {
	// SampleSize is the number of PPS draws (with replacement), at least 1.
	SampleSize int
	// Seed makes the draw deterministic; the target ID is mixed in so
	// different targets sample independently.
	Seed int64
}

// sampleConfidence is the coverage level of the bound ApplyWithBound reports.
const sampleConfidence = 0.95

// SampledScheme is a derivation scheme built from a source sample. Its
// embedded Scheme carries the deduplicated sampled sources with their
// combined weights (HT inflation × derivation weight), so it applies —
// and serializes, and serves — like any other scheme; ApplyWithBound
// additionally reports the confidence interval of the sampled estimate.
type SampledScheme struct {
	Scheme Scheme
	// SampleSize is the number of draws taken.
	SampleSize int

	counts []float64 // per deduped source: number of times drawn
	probs  []float64 // per deduped source: draw probability
}

// NewSampledScheme builds a sampled derivation scheme for target over the
// given source set, reading series histories from src (pass the graph for
// exact histories or a cube.SampledSource to estimate them too). The
// derivation weight uses the target's history against the HT estimate of
// the total source history, so only the sampled sources are ever touched.
//
// It always draws. Whether a source set is worth sampling is the caller's
// choice, made from its size: at or below cube.ExactUpTo(SampleSize) sources
// the exact scheme (Weight, NewScheme) costs about the same and has no
// sampling error.
func NewSampledScheme(src SeriesSource, g *cube.Graph, target int, sources []int, historyLen int, opts SampleOptions) (*SampledScheme, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("derivation: empty source set for target %d", target)
	}
	pop := len(sources)

	// Draw K sources with probability proportional to covered-base count
	// (a size proxy readable from the graph skeleton without
	// materializing any series).
	sizes := make([]float64, pop)
	var total float64
	for i, s := range sources {
		w := float64(g.CoveredBaseCount(s))
		if w <= 0 {
			w = 1
		}
		sizes[i] = w
		total += w
	}
	cum := make([]float64, pop)
	acc := 0.0
	for i, w := range sizes {
		acc += w
		cum[i] = acc
	}
	// The stream is seeded from the option seed and the target ID; one
	// output is burnt so adjacent targets decorrelate.
	rng := cube.SplitMix64(uint64(opts.Seed) ^ (uint64(target)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03))
	rng.Next()
	k := opts.SampleSize
	counts := make([]int, pop)
	for d := 0; d < k; d++ {
		u := float64(rng.Next()>>11) / (1 << 53) * total
		// Binary search the cumulative table.
		lo, hi := 0, pop-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] <= u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		counts[lo]++
	}

	// Deduplicate: sources drawn c times appear once with multiplicity c.
	var (
		picked []int
		cnts   []float64
		probs  []float64
	)
	for i, c := range counts {
		if c == 0 {
			continue
		}
		picked = append(picked, sources[i])
		cnts = append(cnts, float64(c))
		probs = append(probs, sizes[i]/total)
	}

	// Derivation weight k_{S→t} = h_t / Ĥ with Ĥ the HT estimate of the
	// total source history from the sampled sources alone.
	ht := historySum(src, target, historyLen)
	var hEst float64
	for i, s := range picked {
		hEst += cnts[i] / (float64(k) * probs[i]) * historySum(src, s, historyLen)
	}
	if hEst == 0 {
		return nil, fmt.Errorf("derivation: zero sampled source history for target %d", target)
	}
	kw := ht / hEst

	weights := make([]float64, len(picked))
	for i := range picked {
		weights[i] = kw * cnts[i] / (float64(k) * probs[i])
	}
	return &SampledScheme{
		Scheme: Scheme{
			Target:  target,
			Sources: picked,
			K:       kw,
			Kind:    Classify(g, target, sources),
			Weights: weights,
		},
		SampleSize: k,
		counts:     cnts,
		probs:      probs,
	}, nil
}

// ApplyWithBound derives the target forecast and the confidence interval
// [lo, hi] that, at 0.95 confidence, contains the value the exact
// derivation (all sources, same weight formula) would produce. The interval
// is the normal approximation over the K independent PPS draws; a single
// draw has no variance estimate and returns a zero-width interval.
func (sd *SampledScheme) ApplyWithBound(sourceForecasts [][]float64) (fc, lo, hi []float64, err error) {
	fc, err = sd.Scheme.Apply(sourceForecasts)
	if err != nil {
		return nil, nil, nil, err
	}
	lo = make([]float64, len(fc))
	hi = make([]float64, len(fc))
	if sd.SampleSize < 2 {
		copy(lo, fc)
		copy(hi, fc)
		return fc, lo, hi, nil
	}
	kf := float64(sd.SampleSize)
	z := optimize.InvNormCDF(1 - (1-sampleConfidence)/2)
	for t := range fc {
		// Per-draw estimates y_i = x_i / p_i; the HT total is their mean.
		est := 0.0
		for i := range sd.counts {
			est += sd.counts[i] / kf * (sourceForecasts[i][t] / sd.probs[i])
		}
		var s2 float64
		for i := range sd.counts {
			d := sourceForecasts[i][t]/sd.probs[i] - est
			s2 += sd.counts[i] * d * d
		}
		s2 /= kf - 1
		half := z * math.Abs(sd.Scheme.K) * math.Sqrt(s2/kf)
		lo[t] = fc[t] - half
		hi[t] = fc[t] + half
	}
	return fc, lo, hi, nil
}
