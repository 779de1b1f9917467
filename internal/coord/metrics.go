package coord

import (
	"strconv"
	"sync/atomic"

	"cubefc/internal/metrics"
)

// Metrics holds the coordinator's live counters. All fields update with
// atomics only, so scraping never contends with routing.
type Metrics struct {
	// Statement mix at the coordinator surface.
	Queries atomic.Int64
	Execs   atomic.Int64

	// Drill-down shape: drill-down statements forwarded to a shard, shard
	// requests issued for them (one each, plus failover retries), and a
	// log₂ histogram of groups per drill-down.
	Fanouts          atomic.Int64
	FanoutSubqueries atomic.Int64
	FanoutWidth      metrics.Histogram

	// Failovers counts queries answered by a non-owner shard.
	Failovers atomic.Int64

	// Read fast path (cache.go): statements answered from the result
	// cache without touching a shard, shard requests actually performed on
	// a miss, LRU evictions, entries discarded because a write bumped
	// the epoch since their fill, and statements whose routing came from
	// the memo instead of a re-parse.
	CacheHits          atomic.Int64
	CacheMisses        atomic.Int64
	CacheEvictions     atomic.Int64
	CacheInvalidations atomic.Int64
	RouteMemoHits      atomic.Int64
	// CacheCoalesced is always 0: the read table has no singleflight, so
	// no miss joins another's request. It stays for the benchmark harness
	// that reads it.
	CacheCoalesced atomic.Int64

	// EpochGlobalBumps counts write-epoch bumps: one per logged time point.
	EpochGlobalBumps atomic.Int64

	// LogTrimmed counts log entries (time points) dropped after every
	// participating shard applied them (the bounded-log maintenance).
	LogTrimmed atomic.Int64

	// Live shard-state gauges.
	ShardsDown atomic.Int64
	ShardsDead atomic.Int64

	// Shards holds the per-shard counters, indexed like the shard list.
	Shards []ShardMetrics
}

// ShardMetrics counts one shard's traffic as seen from the coordinator.
type ShardMetrics struct {
	Addr     string
	Requests atomic.Int64
	Errors   atomic.Int64
	// Replays counts placements that resumed the shard behind the log's
	// end, so that it replays the time points it lacks.
	Replays atomic.Int64
	// Latency observes request round trips in nanoseconds.
	Latency metrics.Histogram
}

func newMetrics(addrs []string) *Metrics {
	m := &Metrics{Shards: make([]ShardMetrics, len(addrs))}
	for i, a := range addrs {
		m.Shards[i].Addr = a
	}
	return m
}

// Registry describes every field for /metrics and the counter lines of
// StatsText.
func (m *Metrics) Registry() *metrics.Registry {
	r := &metrics.Registry{}
	r.Int("coord_queries_total", "SELECT statements routed.", &m.Queries)
	r.Int("coord_execs_total", "INSERT statements accepted.", &m.Execs)
	r.Int("coord_fanouts_total", "Drill-down statements forwarded to a shard.", &m.Fanouts)
	r.Int("coord_fanout_subqueries_total", "Shard requests issued for drill-down statements, failover retries included.", &m.FanoutSubqueries)
	r.Int("coord_failovers_total", "Queries answered by a non-owner shard.", &m.Failovers)
	r.Int("coord_log_trimmed_total", "Logged time points trimmed after cluster-wide apply.", &m.LogTrimmed)
	r.Int("coord_shards_down", "Shards currently down (reconnecting).", &m.ShardsDown)
	r.Int("coord_shards_dead", "Shards fenced out of the log.", &m.ShardsDead)
	r.Histogram("coord_fanout_width", "Groups per drill-down statement.", 1, &m.FanoutWidth)

	r.Break(false)
	r.Int("coord_cache_hits_total", "Statements served from the result cache (no shard request).", &m.CacheHits)
	r.Int("coord_cache_misses_total", "Result-cache misses that went to a shard.", &m.CacheMisses)
	r.Int("coord_cache_evictions_total", "Result-cache LRU evictions.", &m.CacheEvictions)
	r.Int("coord_cache_invalidations_total", "Cached results discarded because a write bumped the epoch.", &m.CacheInvalidations)
	r.Int("coord_route_memo_hits_total", "Statements routed from the memo without re-parsing.", &m.RouteMemoHits)
	r.Int("coord_epoch_global_bumps_total", "Write-epoch bumps: one per logged time point.", &m.EpochGlobalBumps)

	r.Break(false)
	for i := range m.Shards {
		s := &m.Shards[i]
		shard, addr := metrics.Label("shard", strconv.Itoa(i)), metrics.Label("addr", s.Addr)
		r.Int("coord_shard_requests_total", "Requests sent per shard.", &s.Requests, shard, addr)
		r.Int("coord_shard_errors_total", "Transport failures per shard.", &s.Errors, shard, addr)
		r.Int("coord_shard_replays_total", "Placements that resumed the shard behind the log's end.", &s.Replays, shard, addr)
		r.Histogram("coord_shard_latency_seconds", "Request latency per shard.", 1e9, &s.Latency, shard, addr)
	}
	return r
}
