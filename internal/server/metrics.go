package server

import (
	"sync/atomic"

	"cubefc/internal/metrics"
)

// Metrics holds the server's per-connection and per-request counters. All
// fields are atomics (and the latency histogram is lock-free), so observing
// a serving process never blocks it — the same discipline as the engine's
// own counters in f2db/metrics.go.
type Metrics struct {
	// ConnsAccepted counts accepted connections; ConnsActive is the live
	// gauge (bounded by Options.MaxConns).
	ConnsAccepted atomic.Int64
	ConnsActive   atomic.Int64
	// Per-request counters by type.
	Queries   atomic.Int64
	Execs     atomic.Int64
	Pings     atomic.Int64
	StatsReqs atomic.Int64
	InfoReqs  atomic.Int64
	// Errors counts error responses (engine rejections, timeouts, bad
	// requests); Timeouts the subset cut off by the per-request watchdog.
	Errors   atomic.Int64
	Timeouts atomic.Int64
	// RequestLatency observes fully-read-frame → computed-response time
	// per request, in nanoseconds.
	RequestLatency metrics.Histogram
}

// Registry describes every field for /metrics and \stats.
func (m *Metrics) Registry() *metrics.Registry {
	r := &metrics.Registry{}
	r.Int("f2dbd_connections_accepted_total", "Accepted wire-protocol connections.", &m.ConnsAccepted)
	r.Int("f2dbd_connections_active", "Live wire-protocol connections.", &m.ConnsActive)
	for _, t := range []struct {
		name string
		v    *atomic.Int64
	}{{"query", &m.Queries}, {"exec", &m.Execs}, {"ping", &m.Pings}, {"stats", &m.StatsReqs}, {"info", &m.InfoReqs}} {
		r.Int("f2dbd_requests_total", "Requests served, by type.", t.v, metrics.Label("type", t.name))
	}
	r.Int("f2dbd_request_errors_total", "Error responses (engine rejections, timeouts, bad requests).", &m.Errors)
	r.Int("f2dbd_request_timeouts_total", "Requests cut off by the per-request watchdog.", &m.Timeouts)
	r.Histogram("f2dbd_request_latency_seconds", "Per-request serve latency.", 1e9, &m.RequestLatency)
	return r
}
