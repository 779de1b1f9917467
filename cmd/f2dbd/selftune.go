package main

import (
	"cubefc/internal/coord"
	"cubefc/internal/f2db"
	"cubefc/internal/sibyl"
)

// Self-tuning wiring (-selftune): one sibyl.Engine fed by the serving
// tier's query telemetry drives three actuators. The attach helpers below
// are the only place the daemon decides what "act on a prediction" means
// for each tier; sibyl itself stays policy-free.

// attachEngineTuning points the self-forecasting engine at a local engine:
// pre-warm predicted spike templates through the real query path, schedule
// eager re-estimation (and segment compaction when durable) into predicted
// troughs, and size the plan cache and forecast memo from the predicted
// working set.
func attachEngineTuning(sib *sibyl.Engine, db *f2db.DB, dur *f2db.Durable) {
	db.SetTelemetry(sib)
	sib.Attach(
		&sibyl.Prewarm{Run: func(sql string) error {
			_, err := db.Query(sql)
			return err
		}},
		&sibyl.TroughWork{Run: func() {
			db.ReestimateInvalid()
			if dur != nil {
				_ = dur.Compact()
			}
		}},
		&sibyl.CacheSizer{
			Name:    "plan-cache",
			Apply:   func(n int) { db.SetPlanCacheCapacity(n) },
			Min:     64,
			Max:     64 << 10,
			Current: 256, // Open's defaultPlanCacheSize
		},
		&sibyl.CacheSizer{
			Name:        "forecast-cache",
			Apply:       func(n int) { db.SetForecastCacheCapacity(n) },
			Min:         256,
			Max:         1 << 20,
			PerTemplate: 8,    // distinct (node, horizon, confidence) per template
			Current:     4096, // Open's defaultForecastCacheSize
		},
	)
}

// attachCoordTuning is the coordinator-tier equivalent: pre-warm through
// the routed query path (filling the read table ahead of the spike) and
// size the table from the predicted working set.
// cacheSize <= 0 means the read cache is disabled; only pre-warming (which
// still fills the shards' own caches) is attached then.
func attachCoordTuning(sib *sibyl.Engine, co *coord.Coordinator, cacheSize int) {
	co.SetTelemetry(sib)
	acts := []sibyl.Actuator{
		&sibyl.Prewarm{Run: func(sql string) error {
			_, err := co.Query(sql)
			return err
		}},
	}
	if cacheSize > 0 {
		acts = append(acts, &sibyl.CacheSizer{
			Name:    "coord-cache",
			Apply:   func(n int) { co.SetCacheCapacity(n) },
			Min:     64,
			Max:     64 << 10,
			Current: cacheSize,
		})
	}
	sib.Attach(acts...)
}
