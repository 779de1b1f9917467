package f2db

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
)

// The SQL fast path, layer 2 (see DESIGN.md §cache): a forecast answered
// from unchanged model state is a pure function of (node, horizon,
// confidence), so repeated queries can be served from a memo table instead
// of re-running model Forecast calls and scheme derivation. Invalidation
// must be cheap — maintenance batches arrive continuously — so instead of
// sweeping the table on every write, the table carries one generation:
//
//   - computing a forecast stamps the memo entry with the generation;
//   - any state change that could alter a forecast (a maintenance batch
//     advancing time, a model re-estimation) increments the generation
//     under the engine's exclusive lock;
//   - a lookup whose entry carries a stale generation is treated as a miss
//     and the entry is overwritten by the recomputation.
//
// Writers pay one atomic increment; stale entries are reclaimed lazily at
// overwrite or by the eviction sweep when the table reaches capacity. A
// re-fit stales every entry, not only those deriving from the re-fitted
// model: the table is cold again after each time advance anyway.

// fcKey identifies one memoized forecast.
type fcKey struct {
	node int
	h    int
	conf float64 // 0 = point forecast only
}

// compareFcKeys orders keys by (node, h, conf), the order snapshot images
// use.
func compareFcKeys(a, b fcKey) int {
	return cmp.Or(cmp.Compare(a.node, b.node), cmp.Compare(a.h, b.h), cmp.Compare(a.conf, b.conf))
}

// fcEntry is one memoized forecast stamped with the generation it was
// computed under. The slices are owned by the cache — put takes ownership
// of what it is given — and are handed out as they are: read-only for
// everyone inside the package, cloned where they leave it (ForecastNode).
type fcEntry struct {
	gen    uint64
	point  []float64
	lo, hi []float64
}

// fcCache is the generation-stamped forecast memo table: one map behind
// one RWMutex (lookups under RLock).
type fcCache struct {
	// gen is bumped under the engine's exclusive lock; get and put run
	// under its shared lock, so the generation a put stamps is the one its
	// forecast was derived under.
	gen      atomic.Uint64
	mu       sync.RWMutex
	items    map[fcKey]fcEntry
	capacity int
}

// newFcCache sizes the memo table to hold capacity entries (at least one).
func newFcCache(capacity int) *fcCache {
	capacity = max(capacity, 1)
	return &fcCache{items: make(map[fcKey]fcEntry, capacity/4), capacity: capacity}
}

// get returns the memoized forecast slices — the cache's own, not to be
// written — if an entry exists under the current generation. A stale entry
// is reported as a miss (and left for the next store to overwrite).
func (c *fcCache) get(key fcKey) (point, lo, hi []float64, ok bool) {
	cur := c.gen.Load()
	c.mu.RLock()
	e, found := c.items[key]
	c.mu.RUnlock()
	if !found || e.gen != cur {
		return nil, nil, nil, false
	}
	return e.point, e.lo, e.hi, true
}

// put memoizes a freshly computed forecast under the current generation,
// taking ownership of the slices: nobody writes them afterwards. The caller
// holds the engine lock (shared or exclusive). Returns the number of
// entries evicted by the capacity sweep.
func (c *fcCache) put(key fcKey, point, lo, hi []float64) (evicted int64) {
	cur := c.gen.Load()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.items[key]; !exists && len(c.items) >= c.capacity {
		// Capacity sweep: drop stale entries first; if every entry is live
		// the table is genuinely too small — reset it rather than tracking
		// LRU order on the query hot path.
		evicted = c.dropStale(cur)
		if len(c.items) >= c.capacity {
			evicted += int64(len(c.items))
			c.items = make(map[fcKey]fcEntry, c.capacity/4)
		}
	}
	c.items[key] = fcEntry{gen: cur, point: point, lo: lo, hi: hi}
	return evicted
}

// dropStale deletes the entries not stamped with generation cur and returns
// how many it deleted. The caller holds mu exclusively.
func (c *fcCache) dropStale(cur uint64) (evicted int64) {
	for k, e := range c.items {
		if e.gen != cur {
			delete(c.items, k)
			evicted++
		}
	}
	return evicted
}

// hotKeys returns up to max keys of live entries — forecasts the memo table
// could serve right now — sorted (node, h, conf) so snapshot images are
// deterministic. Used by SaveDatabase to persist the derivation layer's
// working set (the memo analogue of plan-text warmup).
func (c *fcCache) hotKeys(max int) []fcKey {
	cur := c.gen.Load()
	var keys []fcKey
	c.mu.RLock()
	for k, e := range c.items {
		if e.gen == cur {
			keys = append(keys, k)
		}
	}
	c.mu.RUnlock()
	slices.SortFunc(keys, compareFcKeys)
	if len(keys) > max {
		keys = keys[:max]
	}
	return keys
}

// size returns the number of memoized entries, live and stale.
func (c *fcCache) size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.items)
}
