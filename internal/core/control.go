package core

import "sync"

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
		a.evictRejected()
	}
}

// evictRejected drops cached state of permanently rejected nodes when the α
// schedule moves on. Rejected nodes are never re-selected (preselect skips
// them), so their cached local indicators and warm seeds are dead weight —
// without eviction candLoc and warmSeeds grow monotonically over a long
// anytime run. Model nodes never appear in rejected, so accepted state is
// untouched and advisor output is unchanged.
func (a *Advisor) evictRejected() {
	for id := range a.candLoc {
		if a.rejected[id] {
			delete(a.candLoc, id)
		}
	}
	for k := range a.warmSeeds {
		if a.rejected[k.node] {
			delete(a.warmSeeds, k)
		}
	}
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
	modelIDs := a.cfg.ModelIDs()

	type probe struct {
		target  int
		sources []int
	}
	plans := make([]probe, 0, probes)
	for i := 0; i < probes; i++ {
		t := a.rng.Intn(a.g.NumNodes())
		srcs := a.planProbeSources(t, modelIDs)
		if srcs == nil {
			continue
		}
		plans = append(plans, probe{target: t, sources: srcs})
	}
	a.met.probesPlanned.Add(int64(len(plans)))
	a.met.schemeEvals.Add(int64(len(plans)))

	type outcome struct {
		ok bool
		ev evaluation
	}
	results := make([]outcome, len(plans))
	var wg sync.WaitGroup
	sem := make(chan struct{}, a.opts.Parallelism)
	for i, p := range plans {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, p probe) {
			defer wg.Done()
			defer func() { <-sem }()
			ev, ok := a.evalScheme(p.target, p.sources)
			results[i] = outcome{ok: ok, ev: ev}
		}(i, p)
	}
	wg.Wait()
	for i, r := range results {
		if p := plans[i]; r.ok && r.ev.err < a.currentErr(p.target) {
			// The plan's source list is nobody else's: the scheme takes it.
			a.setScheme(a.mkScheme(p.target, p.sources, r.ev), r.ev.err)
			a.met.probesApplied.Add(1)
		}
	}
}
