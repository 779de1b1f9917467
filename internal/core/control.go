package core

import (
	"math"
	"slices"
)

// control implements the parameter regulation of Section IV-C.1: γ follows
// the balance between candidate-selection time and evaluation time, the
// candidate cap follows γ, and α climbs its schedule when rejects pile up
// or improvements stall.
func (a *Advisor) control(candidates, accepted, rejected int, improvement float64) {
	// γ / candidate-cap regulation: the candidate selection phase
	// "should not be more expensive than the evaluation phase" — when
	// evaluation dominates (expensive model creation), analyze more
	// candidates to pick better models; when selection dominates, shrink
	// the candidate set.
	if !a.opts.FixedGamma {
		switch {
		case candidates == 0:
			// The preselection net caught nothing; widen it.
			a.gamma -= 0.2
		case accepted+rejected > 0 && a.lastSelTime > a.lastEvalTime*5/4:
			a.gamma += 0.1
			if a.candCap > a.opts.Parallelism {
				a.candCap /= 2
				if a.candCap < a.opts.Parallelism {
					a.candCap = a.opts.Parallelism
				}
			}
		case accepted+rejected > 0 && a.lastSelTime*4 < a.lastEvalTime:
			a.gamma -= 0.1
			if a.candCap < 64*a.opts.Parallelism {
				a.candCap *= 2
			}
		}
		if a.gamma > 6 {
			a.gamma = 6
		}
		if a.gamma < -2 {
			a.gamma = -2
		}
	}

	// α schedule (Section IV-C.1): increase if (1) a certain number of
	// rejects occurred, (2) no candidates were found, or (3) the error
	// improvement is too small.
	raise := false
	if a.rejectsSinceAlpha >= rejectsPerAlphaStep {
		raise = true
	}
	if candidates == 0 && (a.opts.FixedGamma || a.gamma <= -2+1e-9) {
		// Nothing left to examine: either the net is fully widened, or
		// the γ feedback is disabled and cannot widen it.
		raise = true
	}
	if accepted > 0 && improvement < minErrorImprovement*a.err0 {
		raise = true
	}
	if raise {
		a.alpha += alphaStep
		a.rejectsSinceAlpha = 0
	}
}

// probe is a planned multi-source scheme.
type probe struct {
	target  int
	sources []int
}

// multiSourceProbes implements the optimization component of Section
// IV-C.2: randomized derivation schemes with multiple source nodes. Each
// probe selects a target and a small source set of model nodes, preferring
// sources close to the target, evaluates the scheme's real error and
// applies it when it improves the configuration. Probes are evaluated
// concurrently; applications happen in deterministic probe order.
func (a *Advisor) multiSourceProbes() {
	probes := a.opts.MultiSourceProbes
	if probes <= 0 || a.cfg.NumModels() < 2 {
		return
	}
	// One buffer holds the round's sources, at most three per probe; the
	// winning schemes keep theirs in it.
	plans, srcs := a.plans[:0], make([]int, 0, 3*probes)
	for i := 0; i < probes; i++ {
		t := a.rng.Intn(a.g.NumNodes())
		lo := len(srcs)
		if srcs = a.planProbeSources(t, a.models, srcs); len(srcs) > lo {
			plans = append(plans, probe{target: t, sources: srcs[lo:len(srcs):len(srcs)]})
		}
	}
	a.plans = plans
	a.met.probesPlanned.Add(int64(len(plans)))
	a.met.schemeEvals.Add(int64(len(plans)))

	// A scheme that cannot be evaluated reads as an infinite error.
	results := slices.Grow(a.outcomes[:0], len(plans))[:len(plans)]
	a.outcomes = results
	a.parallel(len(plans), func(i int) {
		if ev, ok := a.evalScheme(plans[i].target, plans[i].sources); ok {
			results[i] = ev
		} else {
			results[i] = evaluation{err: math.Inf(1)}
		}
	})
	for i, ev := range results {
		if p := plans[i]; ev.err < a.cfg.NodeError(p.target) {
			a.setScheme(a.mkScheme(p.target, p.sources, ev), ev.err)
			a.met.probesApplied.Add(1)
		}
	}
}
