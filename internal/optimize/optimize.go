// Package optimize implements the numerical optimization routines used for
// forecast-model parameter estimation. Section IV-B.1 of the paper leaves
// this to "standard local (e.g., Hill-Climbing) or global (e.g., Simulated
// Annealing) optimization algorithms"; the models here estimate with
// bounded Nelder–Mead (several parameters) and golden-section search (one
// parameter). Both minimize an objective f: R^n -> R and are deterministic.
package optimize

import "math"

// Objective is a function to be minimized.
type Objective func(x []float64) float64

// BoundedObjective is an objective that may stop evaluating early once its
// partial value provably exceeds bound. The contract: whenever the true
// objective value is > bound, the implementation may return any value that
// is also > bound (typically the partial accumulation at the abort point);
// whenever the true value is <= bound, the exact value must be returned.
// bound is +Inf when the caller needs the full value. Objectives that
// ignore bound entirely satisfy the contract trivially.
type BoundedObjective func(x []float64, bound float64) float64

// Result reports the best point found and bookkeeping about the search.
type Result struct {
	X     []float64 // minimizing point
	F     float64   // objective at X
	Evals int       // number of objective evaluations
	Iters int       // number of iterations of the outer loop
}

// NelderMeadOptions configures the downhill-simplex method.
type NelderMeadOptions struct {
	MaxIter int     // maximum iterations (default 400·n)
	TolF    float64 // stop when simplex f-spread falls below TolF (default 1e-9)
	TolX    float64 // stop when simplex x-spread falls below TolX (default 1e-9)
	Step    float64 // initial simplex step per coordinate (default 0.1, or 0.00025 for zero coords)

	// Workspace, when non-nil, supplies reusable simplex storage so
	// repeated fits of the same dimensionality allocate nothing. The
	// returned Result.X then aliases the workspace and is only valid
	// until the next call that uses the same workspace; callers that
	// keep the point must copy it out first.
	Workspace *NMWorkspace
}

// NMWorkspace holds the vertex storage of one Nelder-Mead run. A zero
// workspace is ready to use; it (re)allocates lazily when the problem
// dimension changes and is reused verbatim otherwise. Not safe for
// concurrent use.
type NMWorkspace struct {
	n        int
	pts      [][]float64
	fs       []float64
	centroid []float64
	xr, xe   []float64
	xc       []float64
	best     []float64
}

func (w *NMWorkspace) ensure(n int) {
	if w.n == n && w.pts != nil {
		return
	}
	w.n = n
	// One backing array for all n+1 vertices keeps them cache-adjacent.
	back := make([]float64, (n+1)*n)
	w.pts = make([][]float64, n+1)
	for i := range w.pts {
		w.pts[i] = back[i*n : (i+1)*n : (i+1)*n]
	}
	w.fs = make([]float64, n+1)
	w.centroid = make([]float64, n)
	w.xr = make([]float64, n)
	w.xe = make([]float64, n)
	w.xc = make([]float64, n)
	w.best = make([]float64, n)
}

func (o *NelderMeadOptions) defaults(n int) {
	if o.MaxIter <= 0 {
		o.MaxIter = 400 * n
	}
	if o.TolF <= 0 {
		o.TolF = 1e-9
	}
	if o.TolX <= 0 {
		o.TolX = 1e-9
	}
	if o.Step <= 0 {
		o.Step = 0.1
	}
}

// NelderMead minimizes f starting from x0 using the Nelder-Mead downhill
// simplex method with the standard reflection/expansion/contraction/shrink
// coefficients (1, 2, 0.5, 0.5).
func NelderMead(f Objective, x0 []float64, opts NelderMeadOptions) Result {
	return NelderMeadBounded(func(x []float64, _ float64) float64 { return f(x) }, x0, opts)
}

// nmOrder insertion-sorts the simplex by objective value ascending (n is
// small, so insertion sort beats anything fancier and allocates nothing).
func nmOrder(pts [][]float64, fs []float64) {
	for i := 1; i < len(pts); i++ {
		p, v := pts[i], fs[i]
		j := i - 1
		for j >= 0 && fs[j] > v {
			pts[j+1], fs[j+1] = pts[j], fs[j]
			j--
		}
		pts[j+1], fs[j+1] = p, v
	}
}

// NelderMeadBounded is NelderMead for a BoundedObjective: at each trial
// point it passes the tightest bound that cannot change the search
// trajectory, so objectives that honor the bound can abort the bulk of
// their work on hopeless points while the visited simplex sequence stays
// bit-for-bit identical to an unbounded run. The bounds per phase:
//
//   - initial simplex and shrink: +Inf (every value is kept as a vertex)
//   - reflection: fs[worst] — fr only matters if it beats the worst vertex
//     or fr itself, and every comparison against fr with fr > fs[worst]
//     lands in the inside-contraction branch regardless of fr's magnitude
//   - expansion: fr — fe is only used if fe < fr
//   - contraction: min(fr, fs[worst]) — fc is only accepted below that
//
// Aborted (bound-exceeding) values are never stored as vertex values, so
// inexact partial sums cannot leak into later comparisons.
//
// When opts.Workspace is set the simplex storage is reused and Result.X
// aliases it; see NelderMeadOptions.Workspace.
func NelderMeadBounded(f BoundedObjective, x0 []float64, opts NelderMeadOptions) Result {
	n := len(x0)
	if n == 0 {
		return Result{X: nil, F: f(nil, math.Inf(1)), Evals: 1}
	}
	opts.defaults(n)

	ws := opts.Workspace
	if ws == nil {
		ws = &NMWorkspace{}
	}
	ws.ensure(n)
	pts, fs := ws.pts, ws.fs
	centroid, xr, xe, xc := ws.centroid, ws.xr, ws.xe, ws.xc

	inf := math.Inf(1)
	evals := 0

	// Build initial simplex.
	for i := range pts {
		p := pts[i]
		copy(p, x0)
		if i > 0 {
			j := i - 1
			if p[j] != 0 {
				p[j] += opts.Step * math.Abs(p[j])
			} else {
				p[j] = 0.00025
			}
		}
		v := f(p, inf)
		evals++
		if math.IsNaN(v) {
			v = inf
		}
		fs[i] = v
	}

	iters := 0
	for ; iters < opts.MaxIter; iters++ {
		nmOrder(pts, fs)
		// Convergence checks.
		fSpread := math.Abs(fs[n] - fs[0])
		var xSpread float64
		for j := 0; j < n; j++ {
			d := math.Abs(pts[n][j] - pts[0][j])
			if d > xSpread {
				xSpread = d
			}
		}
		if fSpread < opts.TolF && xSpread < opts.TolX {
			break
		}

		// Centroid of all but worst.
		for j := 0; j < n; j++ {
			centroid[j] = 0
			for i := 0; i < n; i++ {
				centroid[j] += pts[i][j]
			}
			centroid[j] /= float64(n)
		}

		// Reflection.
		for j := 0; j < n; j++ {
			xr[j] = centroid[j] + (centroid[j] - pts[n][j])
		}
		fr := f(xr, fs[n])
		evals++
		if math.IsNaN(fr) {
			fr = inf
		}
		switch {
		case fr < fs[0]:
			// Expansion.
			for j := 0; j < n; j++ {
				xe[j] = centroid[j] + 2*(centroid[j]-pts[n][j])
			}
			fe := f(xe, fr)
			evals++
			if math.IsNaN(fe) {
				fe = inf
			}
			if fe < fr {
				copy(pts[n], xe)
				fs[n] = fe
			} else {
				copy(pts[n], xr)
				fs[n] = fr
			}
		case fr < fs[n-1]:
			copy(pts[n], xr)
			fs[n] = fr
		default:
			// Contraction (outside if fr < worst, else inside).
			if fr < fs[n] {
				for j := 0; j < n; j++ {
					xc[j] = centroid[j] + 0.5*(xr[j]-centroid[j])
				}
			} else {
				for j := 0; j < n; j++ {
					xc[j] = centroid[j] + 0.5*(pts[n][j]-centroid[j])
				}
			}
			fc := f(xc, math.Min(fr, fs[n]))
			evals++
			if math.IsNaN(fc) {
				fc = inf
			}
			if fc < math.Min(fr, fs[n]) {
				copy(pts[n], xc)
				fs[n] = fc
			} else {
				// Shrink toward best.
				for i := 1; i <= n; i++ {
					for j := 0; j < n; j++ {
						pts[i][j] = pts[0][j] + 0.5*(pts[i][j]-pts[0][j])
					}
					v := f(pts[i], inf)
					evals++
					if math.IsNaN(v) {
						v = inf
					}
					fs[i] = v
				}
			}
		}
	}
	nmOrder(pts, fs)
	copy(ws.best, pts[0])
	return Result{X: ws.best, F: fs[0], Evals: evals, Iters: iters}
}

// GoldenSection minimizes a one-dimensional objective on [a, b] using
// golden-section search with the given absolute tolerance.
func GoldenSection(f func(float64) float64, a, b, tol float64) (x, fx float64) {
	if tol <= 0 {
		tol = 1e-8
	}
	const invPhi = 0.6180339887498949 // (sqrt(5)-1)/2
	c := b - invPhi*(b-a)
	d := a + invPhi*(b-a)
	fc, fd := f(c), f(d)
	for b-a > tol {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - invPhi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + invPhi*(b-a)
			fd = f(d)
		}
	}
	x = (a + b) / 2
	return x, f(x)
}

// InvNormCDF approximates the inverse standard-normal CDF (Acklam's
// rational approximation, |ε| < 1.15e-9). The advisor derives its initial
// γ from it, and the forecast package uses it for prediction-interval
// quantiles.
func InvNormCDF(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	a := [...]float64{-39.69683028665376, 220.9460984245205, -275.9285104469687, 138.3577518672690, -30.66479806614716, 2.506628277459239}
	b := [...]float64{-54.47609879822406, 161.5858368580409, -155.6989798598866, 66.80131188771972, -13.28068155288572}
	c := [...]float64{-0.007784894002430293, -0.3223964580411365, -2.400758277161838, -2.549732539343734, 4.374664141464968, 2.938163982698783}
	d := [...]float64{0.007784695709041462, 0.3224671290700398, 2.445134137142996, 3.754408661907416}
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}
