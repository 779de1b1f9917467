package coord

import (
	"sync/atomic"

	"cubefc/internal/f2db"
	"cubefc/internal/lru"
)

// The coordinator read fast path (DESIGN.md §6): an lru.Table in front of
// the shards, whose entries hold a statement's routing plan, planned in
// place, and the shard's encoded RESULT payload, relayed as it arrived
// (fclient.QueryRaw checks it with wire.CheckResult, so it is exactly what
// encoding the decoded answer again would give). Its epoch is the
// coordinator's write epoch, bumped by every logged time point in the same
// lock hold as the log append, so it equals the absolute log length:
// pending rows change no answer until a batch advances time, and every
// completed batch is a logged time point, so no answer outlives the write
// that changed it. Callers copy cached payloads out.
type readCache = lru.Table[f2db.Plan, []byte]

func newReadCache(capacity int, epoch *atomic.Uint64, met *Metrics) *readCache {
	return lru.NewTable[f2db.Plan, []byte](capacity, epoch, lru.Meters{
		PlanHits: &met.RouteMemoHits, Hits: &met.CacheHits, Misses: &met.CacheMisses,
		Evictions: &met.CacheEvictions, Invalidations: &met.CacheInvalidations,
	})
}
