// Package daemon holds the wiring the two serving binaries, cmd/f2dbd and
// cmd/f2dbcli, would otherwise each carry a copy of.
package daemon

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"

	"cubefc/internal/f2db"
	"cubefc/internal/metrics"
	"cubefc/internal/sibyl"
)

// ServeMetrics listens on addr and serves the registries on /metrics in
// Prometheus text format for the life of the process, with the
// net/http/pprof handlers under /debug/pprof/ on the same listener if
// withPprof is set (read-only; a profile costs its sampling overhead only
// while a request for it is in flight). It returns the bound address.
func ServeMetrics(addr string, withPprof bool, regs ...*metrics.Registry) (net.Addr, error) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler(regs...))
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() {
		fmt.Fprintln(os.Stderr, "metrics server:", http.Serve(ln, mux))
	}()
	return ln.Addr(), nil
}

// AttachEngineTuning points the self-forecasting engine at a local engine:
// pre-warm predicted spike templates through the real query path, schedule
// eager re-estimation (and segment compaction when durable) into predicted
// troughs, and size the plan cache and forecast memo from the predicted
// working set, starting from the capacities the engine was opened with.
// This is the one place that decides what "act on a prediction" means for
// the engine tier; sibyl itself stays policy-free.
func AttachEngineTuning(sib *sibyl.Engine, db *f2db.DB, dur *f2db.Durable) {
	db.SetTelemetry(sib)
	plans, forecasts := db.CacheCapacities()
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
			Current: plans,
		},
		&sibyl.CacheSizer{
			Name:        "forecast-cache",
			Apply:       func(n int) { db.SetForecastCacheCapacity(n) },
			Min:         256,
			Max:         1 << 20,
			PerTemplate: 8, // distinct (node, horizon, confidence) per template
			Current:     forecasts,
		},
	)
}
