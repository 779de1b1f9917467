package coord

import (
	"slices"
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
// Each entry also carries its own singleflight: concurrent identical
// statements under the same stamp share one shard request. The miss
// thundering herd right after each write collapses to a single request;
// every waiter gets the leader's answer. A flight records the stamp it
// started under and admits only same-stamp waiters — a query that arrives
// after a newer write must not be served an answer that may predate it.
// Waiters sleep on one condition variable over the table mutex, so neither
// a flight nor a wait allocates.
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
// A result is the shard's encoded RESULT payload, relayed as it arrived
// (fclient.QueryRaw checks it with wire.CheckResult, so it is exactly what
// encoding the decoded answer again would give). Cached payloads are shared
// by every hit and never written after the fill: callers copy them out.

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
// at creation; every other field is guarded by readCache.mu.
type entry struct {
	plan   *f2db.Plan
	parts  [maxStampParts]int // parts[:nparts]: distinct ShardFor over plan.Nodes
	nparts int
	// res is the answer fetched under stamp st; nil until the first fill
	// and again once a lookup finds st out of date.
	st  stamp
	res []byte
	// The entry's flight: flying while a shard request for it is out,
	// started under stamp flSt. flights counts the flights ever started, and
	// flRes/flErr hold the outcome of the latest once it has landed — what
	// its waiters return.
	flying  bool
	flSt    stamp
	flights uint64
	flRes   []byte
	flErr   error
}

// readCache is the coordinator's statement-keyed read fast path: the entry
// table, whose entries carry their own flights, under one lock. It is safe
// for concurrent use.
type readCache struct {
	ep  *epochs
	met *Metrics

	mu sync.Mutex
	// landed is signalled, over mu, whenever a flight lands.
	landed sync.Cond
	tab    *lru.Cache[string, *entry]
}

func newReadCache(capacity int, ep *epochs, met *Metrics) *readCache {
	rc := &readCache{ep: ep, met: met, tab: lru.New[string, *entry](capacity)}
	rc.landed.L = &rc.mu
	return rc
}

// newEntry builds a statement's entry: its plan and the distinct write
// partitions the plan's nodes touch, given the partition count. A statement
// touching more than maxStampParts partitions keeps none and is stamped
// with the global counter alone.
func newEntry(plan *f2db.Plan, numParts int) *entry {
	ent := &entry{plan: plan}
	for _, n := range plan.Nodes {
		if p := ShardFor(n, numParts); numParts > 0 && !slices.Contains(ent.parts[:ent.nparts], p) {
			if ent.nparts == maxStampParts {
				ent.nparts = 0
				break
			}
			ent.parts[ent.nparts] = p
			ent.nparts++
		}
	}
	return ent
}

// freshLocked samples the entry's stamp and returns it with the entry's
// result if that is still current, clearing a result a relevant write has
// overtaken. Callers hold rc.mu.
func (rc *readCache) freshLocked(ent *entry) (stamp, []byte) {
	st := rc.ep.sample(ent.parts[:ent.nparts])
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
	ent := newEntry(plan, len(rc.ep.parts))
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
// serves a result another flight stored meanwhile, joins the entry's
// in-progress same-stamp flight when there is one, and otherwise runs fetch
// (the real shard request) as the flight's leader, handing the answer to
// its waiters and — if no relevant write intervened — to the entry. fetch
// returns a payload nobody else holds; from here on it is shared and
// read-only.
func (rc *readCache) fill(key string, ent *entry, fetch func() ([]byte, error)) ([]byte, error) {
	rc.mu.Lock()
	var st stamp
	for {
		var res []byte
		if st, res = rc.freshLocked(ent); res != nil {
			rc.mu.Unlock()
			rc.met.CacheHits.Add(1)
			return res, nil
		}
		if !ent.flying {
			break
		}
		// Join a same-stamp flight. A flight from an older stamp may answer
		// from before writes this query must observe: wait it out and look
		// again rather than racing a second flight on the entry.
		n, join := ent.flights, ent.flSt == st
		if join {
			rc.met.CacheCoalesced.Add(1)
		}
		for ent.flying && ent.flights == n {
			rc.landed.Wait()
		}
		if join && ent.flights == n {
			res, err := ent.flRes, ent.flErr
			rc.mu.Unlock()
			return res, err
		}
		// A later flight overtook ours before this waiter woke: look again.
	}
	ent.flying, ent.flSt = true, st
	ent.flights++
	rc.mu.Unlock()
	rc.met.CacheMisses.Add(1)

	res, err := fetch()

	rc.mu.Lock()
	ent.flying, ent.flRes, ent.flErr = false, res, err
	if err == nil && rc.ep.sample(ent.parts[:ent.nparts]) == st {
		ent.st, ent.res = st, res
		// Re-seat the entry: it may have been evicted during the request,
		// and a fill counts as a use.
		if rc.tab.Put(key, ent) {
			rc.met.CacheEvictions.Add(1)
		}
	}
	rc.mu.Unlock()
	rc.landed.Broadcast()
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
