package forecast

import (
	"math"

	"cubefc/internal/optimize"
)

// Warm-start support for the estimation pipeline. Re-fitting a model on a
// series that has only grown by a batch of observations almost always lands
// near the previous optimum, so the advisor and the F²DB maintenance
// processor seed the optimizer from the last fitted parameters instead of
// the hard-coded cold-start guesses. The seed is explicit and one-shot:
// callers opt in per fit via WarmStart (typically of AppendParams), and
// Fit consumes the seed whether or not it ends up being used, so a plain
// Fit keeps its historical cold-start behavior bit for bit.

// WarmStarter is implemented by models whose Fit runs a numerical
// parameter search that can be seeded (SES, Holt, Holt-Winters).
type WarmStarter interface {
	// AppendParams appends the fitted parameter vector, in the model's
	// optimizer coordinates, to dst; nothing when the model is unfitted.
	AppendParams(dst []float64) []float64
	// WarmStart stores a copy of an explicit seed for the next Fit; the
	// seed is consumed by that Fit (later fits start cold unless reseeded).
	// A nil seed, or one whose length does not match the model's search
	// dimension, clears any pending seed.
	WarmStart(params []float64)
}

// Warm-start tuning constants. The fallback rule: a warm fit is accepted
// only when its objective value does not regress past warmAcceptTol above
// the objective evaluated at the historical cold starting point — if the
// previous optimum landed the search in a worse basin than merely starting
// cold would, the model re-runs the full cold search (which, starting from
// that very point, can only do better).
const (
	// warmMaxIterPerDim caps the warm Nelder-Mead restart. Starting near
	// the optimum the tolerance checks stop the search long before this;
	// the cap only guards against a pathological seed burning the full
	// cold budget before the fallback kicks in.
	warmMaxIterPerDim = 100
	// warmAcceptTol is the relative regression tolerance of the fallback
	// rule above.
	warmAcceptTol = 1e-3
	// warmStep is the initial simplex half-width of a warm restart: the
	// seed is assumed near the optimum, so the simplex starts small
	// instead of the cold 0.1. Nelder-Mead run time is dominated by
	// contracting the simplex from its initial size down to the stopping
	// tolerance, so this — together with the relaxed warm tolerances —
	// is where the warm speedup comes from.
	warmStep = 0.02
	// warmTolF/warmTolX are the warm stopping tolerances. A re-fit
	// refreshes parameters that the next batch of observations will
	// perturb again anyway; chasing the cold 1e-9 simplex spread buys
	// nothing. The acceptance rule still rejects any quality regression
	// past warmAcceptTol.
	warmTolF = 1e-6
	warmTolX = 1e-6
	// sesWarmRadius is the half-width of the narrowed golden-section
	// bracket around a warm SES seed.
	sesWarmRadius = 0.15
	// sesEdgeTol: a warm SES minimizer this close to a narrowed (non
	// natural) bracket edge means the optimum moved outside the bracket —
	// fall back to the full cold bracket.
	sesEdgeTol = 1e-3
)

// warmNMOptions returns the Nelder-Mead options of a warm restart: small
// initial simplex, relaxed tolerances, bounded iterations, reused storage.
func warmNMOptions(dim int, ws *optimize.NMWorkspace) optimize.NelderMeadOptions {
	return optimize.NelderMeadOptions{
		MaxIter:   warmMaxIterPerDim * dim,
		TolF:      warmTolF,
		TolX:      warmTolX,
		Step:      warmStep,
		Workspace: ws,
	}
}

// seed3 stores an explicit warm-start seed of up to three parameters (the
// smoothing families) without heap allocation.
type seed3 struct {
	v [3]float64
	n int
}

func (s *seed3) set(p []float64) {
	if len(p) == 0 || len(p) > len(s.v) {
		s.n = 0
		return
	}
	s.n = copy(s.v[:], p)
}

func (s *seed3) clear() { s.n = 0 }

// valid reports whether the seed holds exactly dim finite values.
func (s *seed3) valid(dim int) bool {
	if s.n != dim {
		return false
	}
	for _, v := range s.v[:s.n] {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// growFloats returns a slice of length n, reusing s's backing array when it
// is large enough. Contents are unspecified.
func growFloats(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}
