package f2db

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"cubefc/internal/forecast"
)

// Model re-estimation under the maintenance lock. Re-fitting a model is by
// far the most expensive maintenance step (a full numerical parameter
// search). It runs holding db.maint and not the engine lock: while maint is
// held no batch advances and no other re-fit installs, so the live series
// and model stay exactly as the fit reads them. A re-fit therefore fits a
// clone of the model on the live series, warm-started from the model's own
// previous parameters, and installs it under the write lock with nothing
// to re-check; readers keep answering from the old model until then.

// invalidModelIDs returns the sorted node IDs whose models currently await
// re-estimation. The caller holds maint or the engine lock (either mode).
func (db *DB) invalidModelIDs() []int {
	var ids []int
	for o, bad := range db.invalid {
		if bad {
			ids = append(ids, db.models[o])
		}
	}
	return ids
}

// ReestimateInvalid re-fits every currently invalid model under the
// maintenance lock, as the next queries touching them would have done
// lazily, and returns how many it re-fitted. An engine that calls it after
// every advance answers exactly like a lazy twin only while the twin's
// queries re-fit every invalidated model before the next advance: a model
// the lazy twin re-fits later is fitted on a longer series
// (TestEagerReestimateTwin).
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
		if o, ok := db.ordinal(id); ok && db.invalid[o] {
			todo = append(todo, id)
		}
	}
	if len(todo) == 0 {
		return 0, nil
	}
	slices.Sort(todo)
	todo = slices.Compact(todo)
	fitted := make([]forecast.Model, len(todo))
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

// fitClone fits a clone of the model at id on the node's live series,
// warm-started from the model's own parameters. The caller holds maint.
func (db *DB) fitClone(id int) (forecast.Model, error) {
	m := db.cfg.Models[id].CloneModel()
	if ws, ok := m.(forecast.WarmStarter); ok {
		o, _ := db.ordinal(id)
		ws.WarmStart(ws.AppendParams(db.seeds[o][:0]))
	}
	if err := m.Fit(db.graph.Node(id).Series); err != nil {
		return nil, fmt.Errorf("f2db: re-estimating node %d: %w", id, err)
	}
	return m, nil
}
