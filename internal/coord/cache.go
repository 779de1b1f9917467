package coord

import (
	"sort"
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
//   - The plan (Planner.RouteQuery: described nodes, member order) and
//     the write partitions its nodes touch depend only on the immutable
//     graph. They are computed on first sight and never invalidated — even
//     a statement whose answer a write just made stale skips re-planning.
//
//   - The shard's Result, with the write-epoch stamp it was fetched
//     under, is served only while the stamp is unchanged. Epochs are per
//     write partition (ShardFor over the statement's base nodes) plus one
//     global counter: a single-partition INSERT bumps only its partition,
//     so it invalidates only cached answers whose node set touches that
//     partition; multi-partition INSERTs and (conservatively detected)
//     batch advances bump the global counter, which every stamp includes.
//     This stays conservative-correct because pending inserts change no
//     query result until a batch advances time, and the advance always
//     bumps the global epoch — the per-partition counters only refine how
//     much a lone insert throws away. A stale result is cleared lazily on
//     the next lookup of its key, never swept: a write costs a handful of
//     counter increments, not a table scan. The plan stays.
//
// Beside the table sits the singleflight map: concurrent identical
// statements under the same stamp share one shard request. The miss
// thundering herd right after each write collapses to a single request;
// every waiter gets the leader's result. A flight records the stamp it
// started under and admits only same-stamp waiters — a query that arrives
// after a newer write must not be served an answer that may predate it.
//
// Stamp/fill protocol. The partition set lives in the entry, so a lookup
// samples the stamp once the entry is in hand and serves the stored result
// only if its stamp equals that sample: no relevant write was logged
// between the fetch that produced the result and the sample. A write whose
// bump lands after the sample is concurrent with this query, and a query
// racing a write may see either side. A flight fills the entry only if the
// stamp is still the one it started under; when it is not, the shards may
// have answered before or after applying the write, which is correct for
// the flight's own callers but must not speak for the new stamp.
//
// Cached *f2db.Result values are shared by every hit and must be treated
// as immutable by callers — the wire server only encodes them, and the
// engine's own results are already shared read-only structures.

// epochs is the cache's view of the coordinator's write-epoch counters:
// one global counter (bumped by multi-partition statements and whenever a
// batch advance may have completed) plus one counter per write partition.
// parts may be empty, collapsing the scheme to the global counter only.
type epochs struct {
	global *atomic.Uint64
	parts  []atomic.Uint64
}

// maxStampParts bounds the inline per-partition sample in a stamp; a
// statement touching more partitions is stamped with the global counter
// only (still correct — results only change on advances, which bump it —
// just coarser). Sized above any realistic shard count.
const maxStampParts = 8

// stamp is one sampled epoch view: the global counter plus the counters
// of the statement's touched partitions, in the entry's partition order.
// Fixed-size, so the hit path stays allocation-free, and unused slots stay
// zero, so two stamps sampled for the same partition set describe the same
// write history exactly when they are ==.
type stamp struct {
	global uint64
	n      int
	parts  [maxStampParts]uint64
}

// sample reads the current stamp for a partition set.
func (e *epochs) sample(parts []int) stamp {
	st := stamp{global: e.global.Load()}
	if len(e.parts) == 0 || len(parts) == 0 || len(parts) > maxStampParts {
		return st
	}
	st.n = len(parts)
	for i, p := range parts {
		st.parts[i] = e.parts[p].Load()
	}
	return st
}

// entry is one statement's row in the read table. plan and parts are fixed
// at creation; st and res are guarded by readCache.mu.
type entry struct {
	plan  *f2db.Plan
	parts []int // sorted distinct ShardFor over plan.Nodes
	// res is the answer fetched under stamp st; nil until the first
	// fill and again once a lookup finds st out of date.
	st  stamp
	res *f2db.Result
}

// flight is one in-progress shard request that concurrent identical
// statements under the same stamp wait on instead of issuing their own.
type flight struct {
	st   stamp
	done chan struct{}
	res  *f2db.Result
	err  error
}

// readCache is the coordinator's statement-keyed read fast path: the entry
// table and the singleflight map, under one lock. It is safe for
// concurrent use.
type readCache struct {
	ep  *epochs
	met *Metrics

	mu      sync.Mutex
	tab     *lru.Cache[string, *entry]
	flights map[string]*flight
}

func newReadCache(capacity int, ep *epochs, met *Metrics) *readCache {
	return &readCache{
		ep:      ep,
		met:     met,
		tab:     lru.New[string, *entry](capacity),
		flights: make(map[string]*flight),
	}
}

// partsFor computes the sorted distinct write partitions a plan's node
// set touches, given the partition count.
func partsFor(plan *f2db.Plan, numParts int) []int {
	if numParts <= 0 {
		return nil
	}
	seen := make(map[int]bool, numParts)
	var parts []int
	for _, n := range plan.Nodes {
		p := ShardFor(n, numParts)
		if !seen[p] {
			seen[p] = true
			parts = append(parts, p)
		}
	}
	sort.Ints(parts)
	return parts
}

// freshLocked samples the entry's stamp and returns it with the entry's
// result if that is still current, clearing a result a relevant write has
// overtaken. Callers hold rc.mu.
func (rc *readCache) freshLocked(ent *entry) (stamp, *f2db.Result) {
	st := rc.ep.sample(ent.parts)
	if ent.res != nil && ent.st != st {
		ent.res = nil
		rc.met.CacheInvalidations.Add(1)
	}
	return st, ent.res
}

// lookup is the hot path: one lock, one table lookup. It returns the
// statement's entry — planned and inserted on first sight — and the cached
// result when that is current (a hit; nil otherwise, and the caller goes
// to fill). Planning errors are returned uncached — they are not on the hot
// path, and the rejection text must keep matching the planner's (and thus
// the engine's) byte-for-byte.
func (rc *readCache) lookup(key, sql string, p *f2db.Planner) (*entry, *f2db.Result, error) {
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
	ent := &entry{plan: plan, parts: partsFor(plan, len(rc.ep.parts))}
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
// serves a result another flight stored meanwhile, joins an in-progress
// same-stamp request when one exists, and otherwise runs fetch (the real
// shard request) as the flight leader, publishing the answer to its waiters and —
// if no relevant write intervened — to the entry.
func (rc *readCache) fill(key string, ent *entry, fetch func() (*f2db.Result, error)) (*f2db.Result, error) {
	for {
		rc.mu.Lock()
		st, res := rc.freshLocked(ent)
		if res != nil {
			rc.mu.Unlock()
			rc.met.CacheHits.Add(1)
			return res, nil
		}
		if f, ok := rc.flights[key]; ok {
			rc.mu.Unlock()
			if f.st == st {
				rc.met.CacheCoalesced.Add(1)
				<-f.done
				return f.res, f.err
			}
			// A request from an older stamp is still in flight; its answer
			// may predate writes this query must observe. Wait it out and
			// retry rather than racing a second flight under the same key.
			<-f.done
			continue
		}
		f := &flight{st: st, done: make(chan struct{})}
		rc.flights[key] = f
		rc.mu.Unlock()
		rc.met.CacheMisses.Add(1)

		f.res, f.err = fetch()

		rc.mu.Lock()
		delete(rc.flights, key)
		if f.err == nil && rc.ep.sample(ent.parts) == st {
			ent.st, ent.res = st, f.res
			// Re-seat the entry: it may have been evicted during the
			// request, and a fill counts as a use.
			if rc.tab.Put(key, ent) {
				rc.met.CacheEvictions.Add(1)
			}
		}
		rc.mu.Unlock()
		close(f.done)
		return f.res, f.err
	}
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
