package main

import (
	"sync"

	"cubefc/internal/coord"
	"cubefc/internal/sibyl"
	"cubefc/internal/wire"
)

// attachCoordTuning is the coordinator-tier counterpart of
// (*daemon.Handle).Tune: pre-warm through the routed query path
// (filling the read table ahead of the spike) and size the table from the
// predicted working set.
// cacheSize <= 0 means the read cache is disabled; only pre-warming (which
// still fills the shards' own caches) is attached then.
func attachCoordTuning(sib *sibyl.Engine, co *coord.Coordinator, cacheSize int) {
	co.SetTelemetry(sib)
	// The warm-up throws its answers away, so they all land in one buffer.
	var mu sync.Mutex
	var buf []byte
	acts := []sibyl.Actuator{
		&sibyl.Prewarm{Run: func(sql string) (err error) {
			mu.Lock()
			defer mu.Unlock()
			buf, err = co.AppendQuery(buf[:0], sql)
			buf = wire.Scratch(buf)
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
