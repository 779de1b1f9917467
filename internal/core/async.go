package core

import (
	"math/rand"
	"sync/atomic"
	"time"
)

// This file implements the asynchronous variant of the multi-source
// optimization component (Section IV-C.2): "we therefore integrated an
// additional asynchronous component ... [that] iteratively selects a target
// node and a random number of source nodes from the time series graph,
// where the possibility of selecting a source node decreases with
// increasing distance from the target node."
//
// A background goroutine continuously *plans* probes against an immutable
// snapshot of the current model set; the advisor drains the plans at
// iteration boundaries, evaluates them (it owns the mutable state) and
// applies improvements. This utilizes otherwise idle cores without
// unsynchronized access to advisor state.

// probePlan is a proposed derivation scheme to evaluate.
type probePlan struct {
	target  int
	sources []int
}

// asyncProber generates probe plans in the background.
type asyncProber struct {
	plans  chan probePlan
	stop   chan struct{}
	done   chan struct{}
	models atomic.Value // []int: current model node IDs
}

// startAsyncProber launches the planning goroutine.
func (a *Advisor) startAsyncProber() {
	p := &asyncProber{
		plans: make(chan probePlan, 4*a.opts.MultiSourceProbes+16),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	p.models.Store([]int(nil))
	a.prober = p
	rng := rand.New(rand.NewSource(a.opts.Seed + 0x9e3779b9))
	go func() {
		defer close(p.done)
		for {
			select {
			case <-p.stop:
				return
			default:
			}
			modelIDs, _ := p.models.Load().([]int)
			if len(modelIDs) < 2 {
				// Nothing to combine yet; back off until the advisor
				// publishes a richer snapshot.
				select {
				case <-p.stop:
					return
				case <-time.After(time.Millisecond):
				}
				continue
			}
			plan := a.planProbe(rng, modelIDs)
			if plan.target >= 0 {
				a.met.probesPlanned.Add(1)
			}
			select {
			case <-p.stop:
				return
			case p.plans <- plan:
			}
		}
	}()
}

// publishModelSnapshot hands the prober the current model set.
func (a *Advisor) publishModelSnapshot() {
	if a.prober == nil {
		return
	}
	a.prober.models.Store(a.cfg.ModelIDs())
}

// drainAsyncProbes evaluates and applies the proposals accumulated since
// the previous iteration (bounded to avoid unbounded work per iteration).
func (a *Advisor) drainAsyncProbes() {
	if a.prober == nil {
		return
	}
	limit := 4 * a.opts.MultiSourceProbes
	if limit <= 0 {
		limit = 16
	}
	for i := 0; i < limit; i++ {
		select {
		case plan := <-a.prober.plans:
			if plan.target < 0 || len(plan.sources) == 0 {
				continue
			}
			// Sources may have been deleted since planning; re-validate.
			valid := true
			for _, s := range plan.sources {
				if _, ok := a.cfg.Models[s]; !ok {
					valid = false
					break
				}
			}
			if !valid {
				continue
			}
			if ev, ok := a.evalScheme(plan.target, plan.sources); ok && ev.err < a.currentErr(plan.target) {
				a.setScheme(a.mkScheme(plan.target, plan.sources, ev), ev.err)
				a.met.probesApplied.Add(1)
			}
		default:
			return
		}
	}
}

// Close stops the advisor's background components. It is safe to call
// multiple times and must be called when the advisor was created with
// AsyncMultiSource and is no longer stepped (Run does this automatically).
func (a *Advisor) Close() {
	if a.prober == nil || a.proberClosed {
		return
	}
	a.proberClosed = true
	close(a.prober.stop)
	// Unblock a possibly full channel send, then wait for exit.
	for {
		select {
		case <-a.prober.plans:
			continue
		case <-a.prober.done:
			return
		}
	}
}

// planProbe selects a target and 2–3 source nodes with proximity-decaying
// probability, sharing multiSourceProbes' planning step. A plan with
// target -1 means no viable source set existed for the drawn target.
func (a *Advisor) planProbe(rng *rand.Rand, modelIDs []int) probePlan {
	t := rng.Intn(a.g.NumNodes())
	srcs := a.planProbeSources(rng, t, modelIDs)
	if srcs == nil {
		return probePlan{target: -1}
	}
	return probePlan{target: t, sources: srcs}
}
