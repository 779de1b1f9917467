package f2db

import (
	"sort"
	"sync"

	"cubefc/internal/forecast"
)

// Off-lock model re-estimation. Re-fitting a model is by far the most
// expensive maintenance step (a full numerical parameter search), and doing
// it under the exclusive engine lock stalls every concurrent query and
// batch advance for its whole duration. The protocol here moves the fit off
// the lock:
//
//  1. Snapshot under the shared lock: clone the node's series and model and
//     read the batch-advance generation counter.
//  2. Fit the clone outside any lock, warm-started from the model's own
//     previous parameters.
//  3. Install under the write lock — but only if the generation counter is
//     unchanged. Every mutation of series or model state happens in
//     advanceBatch, which increments advanceGen under the same write lock
//     before touching either; so an unchanged generation proves the live
//     series and model still equal the snapshot, making the fitted clone a
//     current replacement, never a stale one. On a mismatch the worker
//     drops the clone and re-fits from a fresh snapshot.
//
// A model someone else re-fitted in the meantime (invalid flag cleared at
// the same generation) is left alone. Workers that keep losing the
// generation race give up after reestimateMaxRetries and leave the model
// invalid — the lazy query path then re-fits it under the write lock, where
// no advance can interleave, so progress is always guaranteed.

// reestimateMaxRetries bounds how often an off-lock re-fit restarts after a
// generation conflict before leaving the model to the under-lock fallback.
const reestimateMaxRetries = 3

// invalidModelIDs returns the sorted node IDs whose models currently await
// re-estimation. The caller must hold the engine lock (either mode).
func (db *DB) invalidModelIDs() []int {
	var ids []int
	for id, bad := range db.invalid {
		if !bad {
			continue
		}
		if _, ok := db.cfg.Models[id]; ok {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// invalidSources returns the sorted IDs of invalidated models among the
// derivation-scheme sources of the given nodes — exactly the models a query
// over those nodes would have to re-estimate lazily. Takes the shared lock.
func (db *DB) invalidSources(nodes []int) []int {
	g := db.rLock()
	defer db.unlock(g)
	var ids []int
	seen := make(map[int]bool)
	for _, n := range nodes {
		sc, ok := db.cfg.Schemes[n]
		if !ok {
			continue
		}
		for _, s := range sc.Sources {
			if !db.invalid[s] || seen[s] {
				continue
			}
			if _, ok := db.cfg.Models[s]; ok {
				seen[s] = true
				ids = append(ids, s)
			}
		}
	}
	sort.Ints(ids)
	return ids
}

// reestimateMany re-fits the models at the given nodes using the off-lock
// protocol, fanned out over a worker pool bounded by Options.Parallelism.
// The caller must hold no engine or stripe lock. Nodes whose re-fit keeps
// colliding with concurrent advances (or whose fit fails) stay invalid for
// the lazy under-lock path.
func (db *DB) reestimateMany(ids []int) {
	if len(ids) == 0 {
		return
	}
	workers := db.parallelism
	if workers > len(ids) {
		workers = len(ids)
	}
	if workers <= 1 {
		for _, id := range ids {
			db.reestimateNode(id)
		}
		return
	}
	work := make(chan int, len(ids))
	for _, id := range ids {
		work <- id
	}
	close(work)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range work {
				db.reestimateNode(id)
			}
		}()
	}
	wg.Wait()
}

// reestimateNode runs the off-lock re-estimation protocol for one model.
// It reports whether the model is valid on return — either because this
// call installed a fresh fit, or because someone else did. A false return
// leaves the model invalid (fit error or too many generation conflicts).
func (db *DB) reestimateNode(id int) bool {
	for attempt := 0; attempt < reestimateMaxRetries; attempt++ {
		g := db.rLock()
		if !db.invalid[id] {
			db.unlock(g)
			return true
		}
		m, ok := db.cfg.Models[id]
		if !ok {
			db.unlock(g)
			return false
		}
		gen := db.advanceGen.Load()
		series := db.graph.Node(id).Series.Clone()
		clone, err := forecast.Clone(m)
		db.unlock(g)
		if err != nil {
			return false
		}

		if ws, ok := clone.(forecast.WarmStarter); ok {
			ws.WarmStart(ws.Params())
		}
		if clone.Fit(series) != nil {
			// Leave the model invalid; the lazy under-lock path will
			// surface the fit error to the query that needs the model.
			return false
		}
		if db.testHookBeforeInstall != nil {
			db.testHookBeforeInstall()
		}

		wg := db.wLock()
		if db.advanceGen.Load() != gen {
			// A batch advanced while we fitted: the clone was estimated on
			// a superseded series/state snapshot. Installing it would
			// silently discard the newest observations, so drop it and
			// re-fit from a fresh snapshot.
			db.unlock(wg)
			db.met.reestimateGenRetries.Add(1)
			continue
		}
		if db.invalid[id] {
			db.installModel(wg, id, clone)
		}
		db.unlock(wg)
		return true
	}
	return false
}
