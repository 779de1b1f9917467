package coord

import (
	"sync"
	"sync/atomic"

	"cubefc/internal/f2db"
	"cubefc/internal/lru"
)

// The coordinator read fast path (DESIGN.md §12). Every query that reaches
// the cluster tier otherwise pays a re-plan and a full shard hop even when
// the identical statement was answered microseconds ago and no write
// intervened. Real analytics traffic is dominated by a small
// set of recurring statement templates, exactly the hit distribution a
// statement-keyed table exploits, so the coordinator keeps one in front of
// the shards: an LRU keyed by the normalized statement text
// (f2db.NormalizeSQL — the same function the engine's plan cache keys by,
// so the tiers cannot disagree) whose entry holds everything known about
// the statement.
//
//   - The plan (Planner.RouteQuery: described nodes, member order)
//     depends only on the immutable graph. It is computed on first sight
//     and never invalidated — even a statement whose answer a write just
//     made stale skips re-planning.
//
//   - The shard's Result is served only while the write epoch it was
//     fetched under is unchanged. The coordinator keeps one epoch, bumped
//     by every logged INSERT in the same lock hold as the log append, so it
//     equals the absolute log length. Pending inserts change no answer
//     until a batch advances time, but every statement that could complete
//     a batch is a logged INSERT, so no answer outlives the write that
//     changed it. A stale result is cleared lazily on the next lookup of
//     its key, never swept: a write costs one counter increment, not a
//     table scan. The plan stays.
//
// Concurrent identical misses each ask a shard. In traced runs of every
// benchmark workload no miss ever found a same-epoch request for its
// statement in flight, so a singleflight that joins them saved nothing.
//
// Stamp/fill protocol. A lookup samples the epoch once the entry is in hand
// and serves the stored result only if its stamp equals that sample: no
// write was logged between the fetch that produced the result and the
// sample. A write whose bump lands after the sample is concurrent with this
// query, and a query racing a write may see either side. A fetch fills the
// entry only if the epoch is still the one sampled before it; when it is
// not, the shards may have answered before or after applying the write,
// which is correct for the fetch's own caller but must not speak for the
// new epoch.
//
// A result is the shard's encoded RESULT payload, relayed as it arrived
// (fclient.QueryRaw checks it with wire.CheckResult, so it is exactly what
// encoding the decoded answer again would give). Cached payloads are shared
// by every hit and never written after the fill: callers copy them out.

// entry is one statement's row in the read table. plan is fixed at
// creation; every other field is guarded by readCache.mu.
type entry struct {
	plan *f2db.Plan
	// res is the answer fetched under epoch st; nil until the first fill
	// and again once a lookup finds st out of date.
	st  uint64
	res []byte
}

// readCache is the coordinator's statement-keyed read fast path: the entry
// table under one lock. It is safe for concurrent use.
type readCache struct {
	epoch *atomic.Uint64
	met   *Metrics

	mu  sync.Mutex
	tab *lru.Cache[string, *entry]
}

func newReadCache(capacity int, epoch *atomic.Uint64, met *Metrics) *readCache {
	return &readCache{epoch: epoch, met: met, tab: lru.New[string, *entry](capacity)}
}

// freshLocked samples the epoch and returns it with the entry's result if
// that is still current, clearing a result a write has overtaken. Callers
// hold rc.mu.
func (rc *readCache) freshLocked(ent *entry) (uint64, []byte) {
	st := rc.epoch.Load()
	if ent.res != nil && ent.st != st {
		ent.res = nil
		rc.met.CacheInvalidations.Add(1)
	}
	return st, ent.res
}

// lookup is the hot path: one lock, one table lookup. It returns the
// statement's entry — planned and inserted on first sight — and the cached
// payload when that is current (a hit; nil otherwise, and the caller goes
// to fill). Planning errors are returned uncached — they are not on the hot
// path, and the rejection text must keep matching the planner's (and thus
// the engine's) byte-for-byte.
func (rc *readCache) lookup(key, sql string, p *f2db.Planner) (*entry, []byte, error) {
	rc.mu.Lock()
	if ent, ok := rc.tab.Get(key); ok {
		_, res := rc.freshLocked(ent)
		rc.mu.Unlock()
		rc.met.RouteMemoHits.Add(1)
		if res != nil {
			rc.met.CacheHits.Add(1)
		}
		return ent, res, nil
	}
	rc.mu.Unlock()
	plan, err := p.RouteQuery(sql)
	if err != nil {
		return nil, nil, err
	}
	ent := &entry{plan: plan}
	rc.mu.Lock()
	if cur, ok := rc.tab.Get(key); ok {
		ent = cur // raced with another planner; every caller of the key shares one entry
	} else if rc.tab.Put(key, ent) {
		rc.met.CacheEvictions.Add(1)
	}
	rc.mu.Unlock()
	return ent, nil, nil
}

// fill is the miss path for an entry lookup returned without a result: it
// serves a result another fill stored meanwhile, and otherwise runs fetch
// (the real shard request) and — if no write intervened — stores the answer
// in the entry. fetch returns a payload nobody else holds; from here on it
// is shared and read-only.
func (rc *readCache) fill(key string, ent *entry, fetch func() ([]byte, error)) ([]byte, error) {
	rc.mu.Lock()
	st, res := rc.freshLocked(ent)
	rc.mu.Unlock()
	if res != nil {
		rc.met.CacheHits.Add(1)
		return res, nil
	}
	rc.met.CacheMisses.Add(1)

	res, err := fetch()
	rc.mu.Lock()
	if err == nil && rc.epoch.Load() == st {
		ent.st, ent.res = st, res
		// Re-seat the entry: it may have been evicted during the request,
		// and a fill counts as a use.
		if rc.tab.Put(key, ent) {
			rc.met.CacheEvictions.Add(1)
		}
	}
	rc.mu.Unlock()
	return res, err
}

// setCapacity resizes the table, evicting least-recently-used entries when
// shrinking below current occupancy, and returns how many.
func (rc *readCache) setCapacity(capacity int) int {
	rc.mu.Lock()
	evicted := rc.tab.Resize(capacity)
	rc.mu.Unlock()
	rc.met.CacheEvictions.Add(int64(evicted))
	return evicted
}

// len reports the entry count (stats). Entries whose result a write
// overtook, or whose fetch failed, hold only a plan, so this is an upper
// bound on servable answers.
func (rc *readCache) len() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.tab.Len()
}
