package f2db

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"cubefc/internal/forecast"
	"cubefc/internal/timeseries"
)

// Model re-estimation under the maintenance lock. Re-fitting a model is by
// far the most expensive maintenance step (a full numerical parameter
// search). It runs holding db.maint and not the engine lock: while maint is
// held no batch advances and no other re-fit installs, so the series and
// the model stay exactly as the fit reads them. A re-fit is a function of
// the log: it fits a clone of the model on the series as it stood at the
// model's invalidation generation g, warm-started from the model's own
// parameters (which it has kept since g), then catches the clone up through
// the points since g with the step advanceBatch runs, re-fitting again
// wherever the strategy invalidates it on the way. A lazy re-fit, however
// late, thus installs what an eager one at g and every later advance would
// have reached. It installs under the write lock with nothing to re-check;
// readers keep answering from the old model until then.

// modelScratch is one model's maintenance working set: the warm-start
// parameters, the prefix series a re-fit fits on and the one-step forecast.
type modelScratch struct {
	seed   [3]float64
	prefix timeseries.Series
	step1  [1]float64
}

// refitted is a re-fit's result: the model current at the engine's
// generation, the maintenance statistics its catch-up ended at and the
// number of fits it took.
type refitted struct {
	model forecast.Model
	stats ModelStats
	fits  int
}

// invalidModelIDs returns the sorted node IDs whose models currently await
// re-estimation. The caller holds maint or the engine lock (either mode).
func (db *DB) invalidModelIDs() []int {
	var ids []int
	for o, at := range db.invalidAt {
		if at > 0 {
			ids = append(ids, db.models[o])
		}
	}
	return ids
}

// ReestimateInvalid re-fits every currently invalid model under the
// maintenance lock, as the next queries touching them would have done
// lazily, and returns how many it re-fitted. Either way a model ends in the
// same state, so an engine that calls it answers exactly like one that
// never does (TestEagerReestimateTwin).
func (db *DB) ReestimateInvalid() int {
	db.maint.Lock()
	defer db.maint.Unlock()
	n, _ := db.refit(db.invalidModelIDs())
	return n
}

// refitFor makes a lazy query's nodes answerable under the shared lock: it
// re-fits every invalid model among their sources. The caller holds maint,
// which keeps them so until it is released.
func (db *DB) refitFor(nodes []int) error {
	var ids []int
	for _, n := range nodes {
		ids = append(ids, db.cfg.Schemes[n].Sources...)
	}
	_, err := db.refit(ids)
	return err
}

// refit re-fits the invalid models among ids and installs them under one
// write-lock hold. The caller holds maint and no other engine lock. Several
// fits run on a pool sized by GOMAXPROCS; a single one runs on the caller's
// goroutine. It returns how many models it installed and every fit error;
// a model whose fit failed stays invalid.
func (db *DB) refit(ids []int) (int, error) {
	var todo []int
	for _, id := range ids {
		if o, ok := db.ordinal(id); ok && db.invalidAt[o] > 0 {
			todo = append(todo, id)
		}
	}
	if len(todo) == 0 {
		return 0, nil
	}
	slices.Sort(todo)
	todo = slices.Compact(todo)
	fitted := make([]refitted, len(todo))
	errs := make([]error, len(todo))
	fit := func(i int) { fitted[i], errs[i] = db.fitClone(todo[i]) }
	if workers := min(runtime.GOMAXPROCS(0), len(todo)); workers <= 1 {
		for i := range todo {
			fit(i)
		}
	} else {
		work := make(chan int, len(todo))
		for i := range todo {
			work <- i
		}
		close(work)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					fit(i)
				}
			}()
		}
		wg.Wait()
	}
	installed := 0
	db.mu.Lock()
	defer db.mu.Unlock()
	for i, id := range todo {
		if errs[i] == nil {
			db.installModel(id, fitted[i])
			installed++
		}
	}
	return installed, errors.Join(errs...)
}

// fitClone re-fits a clone of the invalid model at id on the series up to
// its invalidation generation and catches it up to the engine's, re-fitting
// at each further invalidation. Every fit warm-starts from the parameters
// the clone holds. The caller holds maint.
func (db *DB) fitClone(id int) (refitted, error) {
	o, _ := db.ordinal(id)
	sc := &db.scratch[o]
	series := db.graph.Node(id).Series
	r := refitted{model: db.cfg.Models[id].CloneModel()}
	for at := db.invalidAt[o]; ; {
		if ws, ok := r.model.(forecast.WarmStarter); ok {
			ws.WarmStart(ws.AppendParams(sc.seed[:0]))
		}
		sc.prefix = timeseries.Series{Values: series.Values[:at:at], Period: series.Period}
		if err := r.model.Fit(&sc.prefix); err != nil {
			return refitted{}, fmt.Errorf("f2db: re-estimating node %d: %w", id, err)
		}
		r.fits++
		r.stats = ModelStats{}
		for invalid := false; !invalid; at++ {
			if at == db.graph.Length {
				return r, nil
			}
			invalid = db.observe(o, r.model, &r.stats, series.Values[at])
		}
	}
}
