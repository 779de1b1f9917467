package f2db

import (
	"sort"
	"sync"
	"sync/atomic"
)

// The SQL fast path, layer 2 (see DESIGN.md §cache): a forecast answered
// from unchanged model state is a pure function of (node, horizon,
// confidence), so repeated queries can be served from a memo table instead
// of re-running model Forecast calls and scheme derivation. Invalidation
// must be cheap — maintenance batches arrive continuously — so instead of
// sweeping the table on every write, each node carries an epoch counter:
//
//   - computing a forecast stamps the memo entry with the node's epoch;
//   - any state change that could alter a node's forecast (a maintenance
//     batch advancing time, a model re-estimation) atomically increments
//     the epochs of every affected node;
//   - a lookup whose entry carries a stale epoch is treated as a miss and
//     the entry is overwritten by the recomputation.
//
// Writers only ever pay O(affected nodes) atomic increments; stale entries
// are reclaimed lazily at overwrite or by the eviction sweep when the table
// reaches capacity.
//
// The entry table is sharded with the engine's write stripes (stripe.go):
// each shard owns its own map, RWMutex and capacity slice, and a node's
// entries all live in the shard its ID hashes to. Memo lookups and stores
// on different shards never contend, and an eviction sweep stalls one
// shard, not the whole table. The epoch array is shared — it is lock-free
// and per-node already.

// fcKey identifies one memoized forecast.
type fcKey struct {
	node int
	h    int
	conf float64 // 0 = point forecast only
}

// fcEntry is one memoized forecast stamped with the node epoch it was
// computed under. The slices are owned by the cache — put takes ownership
// of what it is given — and are handed out as they are: read-only for
// everyone inside the package, cloned where they leave it (ForecastNode).
type fcEntry struct {
	epoch  uint64
	point  []float64
	lo, hi []float64
}

// fcShard is one shard of the memo table: its own map behind its own
// RWMutex (lookups under RLock), holding the entries of the nodes hashed
// to it.
type fcShard struct {
	mu    sync.RWMutex
	items map[fcKey]fcEntry
}

// fcCache is the epoch-guarded, sharded forecast memo table. Epoch bumps
// are lock-free; entry maps are guarded per shard.
type fcCache struct {
	epochs []atomic.Uint64 // one per graph node
	shards []fcShard
	// shardCap is the per-shard capacity slice. Atomic because setCapacity
	// may resize it while queries run put on other shards.
	shardCap atomic.Int64
	shift    uint // log2(len(shards)), for stripeIndex routing
}

// newFcCache sizes the memo table for a graph with numNodes nodes, sharded
// `stripes` ways (a power of two, the engine's write-stripe count). The
// total capacity is sliced evenly across shards.
func newFcCache(numNodes, capacity, stripes int) *fcCache {
	if capacity < 1 {
		capacity = 1
	}
	if stripes < 1 {
		stripes = 1
	}
	shardCap := (capacity + stripes - 1) / stripes
	if shardCap < 1 {
		shardCap = 1
	}
	c := &fcCache{
		epochs: make([]atomic.Uint64, numNodes),
		shards: make([]fcShard, stripes),
		shift:  stripeShiftFor(stripes),
	}
	c.shardCap.Store(int64(shardCap))
	for i := range c.shards {
		c.shards[i].items = make(map[fcKey]fcEntry, shardCap/4)
	}
	return c
}

// shardFor returns the shard owning a node's memo entries.
func (c *fcCache) shardFor(node int) *fcShard {
	return &c.shards[stripeIndex(node, c.shift)]
}

// epoch returns the current epoch of a node.
func (c *fcCache) epoch(node int) uint64 { return c.epochs[node].Load() }

// bump invalidates every memoized forecast of a node with one atomic
// increment. It returns 1 (the number of epochs bumped) for metric
// accounting convenience.
func (c *fcCache) bump(node int) int64 {
	c.epochs[node].Add(1)
	return 1
}

// bumpAll invalidates all nodes (a maintenance batch advanced time, which
// changes every node's series and every model's state). Returns the number
// of epochs bumped.
func (c *fcCache) bumpAll() int64 {
	for i := range c.epochs {
		c.epochs[i].Add(1)
	}
	return int64(len(c.epochs))
}

// get returns the memoized forecast slices — the cache's own, not to be
// written — if an entry exists and its epoch matches the node's current
// epoch. A stale entry is reported as a miss (and left for the next store
// to overwrite).
func (c *fcCache) get(key fcKey) (point, lo, hi []float64, ok bool) {
	cur := c.epochs[key.node].Load()
	sh := c.shardFor(key.node)
	sh.mu.RLock()
	e, found := sh.items[key]
	sh.mu.RUnlock()
	if !found || e.epoch != cur {
		return nil, nil, nil, false
	}
	return e.point, e.lo, e.hi, true
}

// put memoizes a freshly computed forecast under the node's current epoch,
// taking ownership of the slices: nobody writes them afterwards.
// The caller must hold the engine lock (shared or exclusive) so the epoch
// read here is consistent with the state the forecast was derived from:
// epoch bumps only happen under the exclusive engine lock. Returns the
// number of entries evicted by the capacity sweep.
func (c *fcCache) put(key fcKey, point, lo, hi []float64) (evicted int64) {
	e := fcEntry{epoch: c.epochs[key.node].Load(), point: point, lo: lo, hi: hi}
	sh := c.shardFor(key.node)
	shardCap := int(c.shardCap.Load())
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, exists := sh.items[key]; !exists && len(sh.items) >= shardCap {
		// Capacity sweep, per shard: drop stale-epoch entries first; if
		// every entry is live the shard is genuinely too small — reset it
		// rather than tracking LRU order on the query hot path.
		for k, v := range sh.items {
			if v.epoch != c.epochs[k.node].Load() {
				delete(sh.items, k)
				evicted++
			}
		}
		if len(sh.items) >= shardCap {
			evicted += int64(len(sh.items))
			sh.items = make(map[fcKey]fcEntry, shardCap/4)
		}
	}
	sh.items[key] = e
	return evicted
}

// setCapacity resizes the memo table to hold roughly `capacity` total
// entries (re-sliced evenly across shards, minimum one per shard). Shards
// over the new slice drop stale-epoch entries first, then live entries in
// deterministic sorted-key order. Returns the eviction count.
func (c *fcCache) setCapacity(capacity int) (evicted int64) {
	if capacity < 1 {
		capacity = 1
	}
	stripes := len(c.shards)
	shardCap := (capacity + stripes - 1) / stripes
	if shardCap < 1 {
		shardCap = 1
	}
	c.shardCap.Store(int64(shardCap))
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		if len(sh.items) > shardCap {
			for k, v := range sh.items {
				if v.epoch != c.epochs[k.node].Load() {
					delete(sh.items, k)
					evicted++
				}
			}
		}
		if over := len(sh.items) - shardCap; over > 0 {
			keys := make([]fcKey, 0, len(sh.items))
			for k := range sh.items {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(a, b int) bool {
				x, y := keys[a], keys[b]
				if x.node != y.node {
					return x.node < y.node
				}
				if x.h != y.h {
					return x.h < y.h
				}
				return x.conf < y.conf
			})
			for _, k := range keys[len(keys)-over:] {
				delete(sh.items, k)
				evicted++
			}
		}
		sh.mu.Unlock()
	}
	return evicted
}

// hotKeys returns up to max keys of live entries — entries whose stamped
// epoch matches their node's current epoch, i.e. forecasts the memo table
// could serve right now. Keys are sorted (node, h, conf) so snapshot
// images are deterministic. Used by SaveDatabase to persist the derivation
// layer's working set (the memo analogue of plan-text warmup).
func (c *fcCache) hotKeys(max int) []fcKey {
	var keys []fcKey
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for k, e := range sh.items {
			if e.epoch == c.epochs[k.node].Load() {
				keys = append(keys, k)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.node != b.node {
			return a.node < b.node
		}
		if a.h != b.h {
			return a.h < b.h
		}
		return a.conf < b.conf
	})
	if len(keys) > max {
		keys = keys[:max]
	}
	return keys
}

// size returns the number of memoized entries (live and stale) across all
// shards.
func (c *fcCache) size() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.items)
		sh.mu.RUnlock()
	}
	return n
}

// shardSizes returns the per-shard entry counts (metrics).
func (c *fcCache) shardSizes() []int {
	out := make([]int, len(c.shards))
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		out[i] = len(sh.items)
		sh.mu.RUnlock()
	}
	return out
}
