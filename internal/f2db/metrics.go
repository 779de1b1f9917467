package f2db

import (
	"strings"
	"sync/atomic"
	"time"

	"cubefc/internal/derivation"
	"cubefc/internal/metrics"
)

// This file is the engine's observability surface. All counters are plain
// atomics so the hot read path (forecast queries under the shared lock)
// never funnels through the write lock to record what it did; a Metrics()
// snapshot is likewise lock-free and safe to call from monitoring
// goroutines at any rate. Metrics.describe names the snapshot's families
// once; internal/metrics renders them for /metrics and \stats.

// derivationKinds bounds the per-kind counters; derivation.Kind values are
// the contiguous range Direct..General.
const derivationKinds = int(derivation.General) + 1

// engineMetrics holds the live counters; updates use atomics only, never
// the engine lock.
type engineMetrics struct {
	queries       atomic.Int64
	inserts       atomic.Int64
	batchInserts  atomic.Int64
	batches       atomic.Int64
	reestimations atomic.Int64
	queryNanos    atomic.Int64
	maintainNanos atomic.Int64
	schemeHits    [derivationKinds]atomic.Int64
	latency       metrics.Histogram

	// Read-table counters (see Metrics).
	planHits      atomic.Int64
	planMisses    atomic.Int64
	fcHits        atomic.Int64
	fcMisses      atomic.Int64
	fcBypasses    atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
	epochBumps    atomic.Int64

	// Durability counters (durable.go). The wal* values mirror the WAL's
	// own counters after each commit; walReplayed counts batches recovered
	// from the log at open; seg* count segment compactions and their
	// bytes; snapshotWrites counts crash-safe snapshot files written.
	walAppends     atomic.Int64
	walSyncs       atomic.Int64
	walBytes       atomic.Int64
	walFiles       atomic.Int64
	walReplayed    atomic.Int64
	segCompactions atomic.Int64
	segBytes       atomic.Int64
	snapshotWrites atomic.Int64
}

// recordForecasts counts the node forecasts one call answered, sharing its
// time d between them, and the derivation kind of each.
func (db *DB) recordForecasts(nodes []int, d time.Duration) {
	m := &db.met
	per := d.Nanoseconds() / int64(len(nodes))
	for _, id := range nodes {
		m.queries.Add(1)
		m.queryNanos.Add(per)
		m.latency.Observe(per)
		k := int(db.cfg.Schemes[id].Kind)
		if k < 0 || k >= derivationKinds {
			k = int(derivation.General)
		}
		m.schemeHits[k].Add(1)
	}
}

// Metrics is a point-in-time snapshot of the engine's observability
// counters (see DB.Metrics).
type Metrics struct {
	// Queries counts answered node forecasts (a drill-down SQL query
	// answering g groups counts g).
	Queries int64
	// Inserts, Batches and Reestimations mirror the maintenance
	// processor: raw inserts, completed time advances, and model
	// re-fits (lazy or maintenance-triggered). ReestimateGenRetries is
	// always 0: a re-fit holds the maintenance lock, so no advance can
	// make it stale. It stays for the benchmark harness that reads it.
	Inserts              int64
	Batches              int64
	Reestimations        int64
	ReestimateGenRetries int64
	// QueryTime and MaintainTime accumulate engine-side wall time.
	QueryTime    time.Duration
	MaintainTime time.Duration
	// SchemeHits counts answered forecasts by derivation kind
	// ("direct", "aggregation", "disaggregation", "general").
	SchemeHits map[string]int64
	// QueryLatency is the log-bucketed per-forecast latency histogram, in
	// nanoseconds.
	QueryLatency metrics.HistogramSnapshot

	// BatchInserts counts InsertBatch calls (Inserts counts individual
	// values regardless of the API they arrived through).
	BatchInserts int64

	// Read-table counters, by statement; the Plan/ForecastCache names are
	// those of the two caches the table replaced, which the benchmark
	// harness reads. PlanCacheHits counts statements whose plan the table
	// held, PlanCacheMisses statements planned into it; ForecastCacheHits
	// counts statements answered from the table and ForecastCacheMisses
	// those it derived, except on the lazy re-estimation path:
	// ForecastCacheBypasses counts the calls that took it, table or not. TableEvictions counts
	// statements evicted, TableInvalidations answers a generation bump
	// overtook; TableEntries is the current entry count. EpochBumps counts
	// generation bumps, which only time advances make: one per advance.
	PlanCacheHits         int64
	PlanCacheMisses       int64
	ForecastCacheHits     int64
	ForecastCacheMisses   int64
	ForecastCacheBypasses int64
	TableEvictions        int64
	TableInvalidations    int64
	TableEntries          int
	EpochBumps            int64

	// StripeContention is always empty: insert statements serialize on the
	// maintenance lock, which has no contention counter. It stays for the
	// benchmark harness that reads it.
	StripeContention []int64

	// Durability counters (zero on a non-durable engine): WAL record
	// appends, fsyncs and bytes written, live WAL file count, batches
	// replayed from the log at open, segment compactions with their
	// bytes, and crash-safe snapshot writes.
	WALAppends         int64
	WALSyncs           int64
	WALBytes           int64
	WALFiles           int64
	WALReplayedBatches int64
	SegmentCompactions int64
	SegmentBytes       int64
	SnapshotWrites     int64
}

// Metrics returns a lock-free snapshot of the engine counters. Unlike
// Stats it exposes the full observability surface: per-kind derivation
// hits and the query-latency histogram.
func (db *DB) Metrics() Metrics {
	m := Metrics{
		Queries:       db.met.queries.Load(),
		Inserts:       db.met.inserts.Load(),
		BatchInserts:  db.met.batchInserts.Load(),
		Batches:       db.met.batches.Load(),
		Reestimations: db.met.reestimations.Load(),
		QueryTime:     time.Duration(db.met.queryNanos.Load()),
		MaintainTime:  time.Duration(db.met.maintainNanos.Load()),
		SchemeHits:    make(map[string]int64, derivationKinds),
		QueryLatency:  db.met.latency.Snapshot(),

		PlanCacheHits:         db.met.planHits.Load(),
		PlanCacheMisses:       db.met.planMisses.Load(),
		ForecastCacheHits:     db.met.fcHits.Load(),
		ForecastCacheMisses:   db.met.fcMisses.Load(),
		ForecastCacheBypasses: db.met.fcBypasses.Load(),
		TableEvictions:        db.met.evictions.Load(),
		TableInvalidations:    db.met.invalidations.Load(),
		EpochBumps:            db.met.epochBumps.Load(),

		WALAppends:         db.met.walAppends.Load(),
		WALSyncs:           db.met.walSyncs.Load(),
		WALBytes:           db.met.walBytes.Load(),
		WALFiles:           db.met.walFiles.Load(),
		WALReplayedBatches: db.met.walReplayed.Load(),
		SegmentCompactions: db.met.segCompactions.Load(),
		SegmentBytes:       db.met.segBytes.Load(),
		SnapshotWrites:     db.met.snapshotWrites.Load(),
	}
	if db.table != nil {
		m.TableEntries = db.table.Len()
	}
	for i := 0; i < derivationKinds; i++ {
		if c := db.met.schemeHits[i].Load(); c > 0 {
			m.SchemeHits[derivation.Kind(i).String()] = c
		}
	}
	return m
}

// describe registers every family of the snapshot, in \stats line order:
// a Metrics field not named here reaches neither surface
// (TestRegistryComplete).
func (m Metrics) describe(r *metrics.Registry) {
	r.Value("f2db_queries_total", "Answered node forecasts.", float64(m.Queries))
	r.Value("f2db_inserts_total", "Base series values inserted.", float64(m.Inserts))
	r.Value("f2db_insert_batches_total", "InsertBatch calls.", float64(m.BatchInserts))
	r.Value("f2db_maintenance_batches_total", "Completed time advances.", float64(m.Batches))
	r.Value("f2db_reestimations_total", "Model parameter re-estimations.", float64(m.Reestimations))
	r.Value("f2db_query_seconds_total", "Engine-side wall time answering queries.", m.QueryTime.Seconds())
	r.Value("f2db_maintain_seconds_total", "Engine-side wall time on insert maintenance.", m.MaintainTime.Seconds())

	r.Break(false)
	for k := range derivationKinds {
		kind := derivation.Kind(k).String()
		r.Value("f2db_scheme_hits_total", "Answered forecasts by derivation kind.", float64(m.SchemeHits[kind]), metrics.Label("kind", kind))
	}

	r.Break(false)
	r.Value("f2db_read_table_plan_hits_total", "Statements whose plan the read table held.", float64(m.PlanCacheHits))
	r.Value("f2db_read_table_plans_total", "Statements planned into the read table.", float64(m.PlanCacheMisses))
	r.Value("f2db_read_table_hits_total", "Statements answered from the read table.", float64(m.ForecastCacheHits))
	r.Value("f2db_read_table_misses_total", "Statements derived on a read table miss.", float64(m.ForecastCacheMisses))
	r.Value("f2db_read_table_evictions_total", "Statements evicted from the read table.", float64(m.TableEvictions))
	r.Value("f2db_read_table_invalidations_total", "Read table answers a generation bump overtook.", float64(m.TableInvalidations))
	r.Value("f2db_read_table_entries", "Statements in the read table.", float64(m.TableEntries))
	r.Value("f2db_lazy_refit_bypasses_total", "Calls that took the lazy re-estimation path.", float64(m.ForecastCacheBypasses))
	r.Value("f2db_epoch_bumps_total", "Generation bumps, one per time advance.", float64(m.EpochBumps))

	// \stats leaves the durability line out on an engine that never logged.
	r.Break(true)
	r.Value("f2db_wal_appends_total", "Batches appended to the write-ahead log.", float64(m.WALAppends))
	r.Value("f2db_wal_syncs_total", "WAL fsyncs issued.", float64(m.WALSyncs))
	r.Value("f2db_wal_bytes_total", "Bytes appended to the write-ahead log.", float64(m.WALBytes))
	r.Value("f2db_wal_files", "WAL files currently on disk.", float64(m.WALFiles))
	r.Value("f2db_wal_replayed_batches_total", "Batches replayed from the WAL at open.", float64(m.WALReplayedBatches))
	r.Value("f2db_segment_compactions_total", "WAL spans compacted into segments.", float64(m.SegmentCompactions))
	r.Value("f2db_segment_bytes_total", "Segment bytes written.", float64(m.SegmentBytes))
	r.Value("f2db_snapshot_writes_total", "Crash-safe snapshot files written.", float64(m.SnapshotWrites))

	r.Break(false)
	r.HistogramValue("f2db_query_latency_seconds", "Per-forecast latency.", 1e9, m.QueryLatency)
}

// String renders the snapshot in the \stats form.
func (m Metrics) String() string {
	var r metrics.Registry
	m.describe(&r)
	var b strings.Builder
	r.WriteStats(&b)
	return b.String()
}

// Registry returns the engine's families for /metrics and \stats: a fresh
// Metrics snapshot at every render, behind the gauges that are not in it
// (InvalidCount takes the engine's read lock; the snapshot is lock-free).
func (db *DB) Registry() *metrics.Registry {
	return metrics.Dynamic(func(r *metrics.Registry) {
		r.Value("f2db_resident_nodes", "Graph nodes whose series is materialized.", float64(db.graph.MaterializedNodes()))
		r.Value("f2db_graph_nodes", "Nodes of the time-series hyper graph.", float64(db.graph.NumNodes()))
		r.Value("f2db_pending_inserts", "Values in the current incomplete batch.", float64(db.pendingTotal.Load()))
		r.Value("f2db_invalid_models", "Models awaiting re-estimation.", float64(db.InvalidCount()))
		r.Break(false)
		db.Metrics().describe(r)
	})
}
