package f2db

// Self-tuning attach points (see DESIGN.md §13). The engine does not know
// about the sibyl control plane — it only exposes the three capabilities
// the control loop needs: a telemetry tap on the query path, dynamic cache
// capacities, and an eager pass over the currently invalid models so
// re-estimation can be scheduled into predicted workload troughs.

// QueryTelemetry receives one call per executed query with the statement's
// normalized template text (NormalizeSQL output — the plan-cache key).
// Implementations must be safe for concurrent use and fast: the hook runs
// on the query hot path. internal/sibyl's Engine satisfies it.
type QueryTelemetry interface {
	ObserveTemplate(key string)
}

// teleBox wraps the telemetry interface so the DB can hold it in an
// atomic.Pointer (interfaces are not directly atomically storable).
type teleBox struct{ t QueryTelemetry }

// SetTelemetry attaches (or, with nil, detaches) the workload telemetry
// sink. Safe on a live engine; queries in flight may report to the
// previous sink for one more statement.
func (db *DB) SetTelemetry(t QueryTelemetry) {
	if t == nil {
		db.tele.Store(nil)
		return
	}
	db.tele.Store(&teleBox{t: t})
}

// SetPlanCacheCapacity resizes the SQL plan cache, evicting
// least-recently-used plans when shrinking. It returns the eviction count
// and is a no-op (returning 0) when the cache is disabled.
func (db *DB) SetPlanCacheCapacity(entries int) int {
	if db.plans == nil {
		return 0
	}
	db.planMu.Lock()
	evicted := db.plans.Resize(entries)
	db.planMu.Unlock()
	db.met.planEvictions.Add(int64(evicted))
	return evicted
}

// SetForecastCacheCapacity resizes the forecast memo table (re-sliced
// across its shards), evicting stale entries first and then live entries
// in deterministic key order. It returns the eviction count and is a
// no-op when memoization is disabled.
func (db *DB) SetForecastCacheCapacity(entries int) int {
	if db.fc == nil {
		return 0
	}
	evicted := db.fc.setCapacity(entries)
	db.met.fcEvictions.Add(evicted)
	return int(evicted)
}

// CacheCapacities reports the current capacities of the plan cache and the
// forecast memo (0 for a disabled one) — where a sizer that will later call
// the two setters above starts from.
func (db *DB) CacheCapacities() (plans, forecasts int) {
	if db.plans != nil {
		db.planMu.Lock()
		plans = db.plans.Cap()
		db.planMu.Unlock()
	}
	if db.fc != nil {
		forecasts = int(db.fc.shardCap.Load()) * len(db.fc.shards)
	}
	return plans, forecasts
}

// ReestimateInvalid re-fits every currently invalid model under the
// maintenance lock, exactly as the next queries touching them would have
// done lazily — run in a predicted workload trough it moves the fit cost
// off the query path without changing any result. It returns the number of
// models re-estimated.
func (db *DB) ReestimateInvalid() int {
	db.maint.Lock()
	defer db.maint.Unlock()
	n, _ := db.refit(db.invalidModelIDs())
	return n
}
