// Package daemon is the one place that turns flags into a running
// process: data source → hyper graph → configuration → engine → durable
// directory, with the metrics listener beside it. The rule it enforces: a
// flag two binaries share is declared here, once, or not at all.
// cmd/advisor registers Source; cmd/f2dbcli and cmd/f2dbd register all
// three groups and add only what is theirs alone.
package daemon

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"

	"cubefc/internal/experiments"
	"cubefc/internal/f2db"
	"cubefc/internal/metrics"
)

// Logf receives the assembly path's progress lines; each binary prefixes
// and routes them its own way.
type Logf func(format string, args ...any)

// Source is what is read: the fact data the cube is built from.
type Source struct {
	Dataset string
	CSV     string
	Dims    string
	Period  int
	// Scale sizes the built-in data sets; no flag of this group sets it
	// (advisor -paper-scale does).
	Scale experiments.Scale
}

// Register declares the source flags on fs.
func (s *Source) Register(fs *flag.FlagSet) {
	fs.StringVar(&s.Dataset, "dataset", "tourism", "data set: tourism, sales, energy, gen1k, gen10k, cubeN (synthetic cube with ~N nodes, e.g. cube100k)")
	fs.StringVar(&s.CSV, "csv", "", "load a fact-table CSV instead of a built-in data set")
	fs.StringVar(&s.Dims, "dims", "", "dimension spec for -csv, e.g. \"product;location=city<region\"")
	fs.IntVar(&s.Period, "period", 1, "seasonal period for -csv data")
}

// Engine is how the engine over a Source is configured and where its
// state lives: a saved configuration or snapshot to start from, the
// estimation knobs, and the durable directory.
type Engine struct {
	Config string
	DB     string
	// Options and Durable take their flags directly; Open fills in the
	// fields no flag sets (Strategy, Sync).
	Options f2db.Options
	Durable f2db.DurableOptions
	Fsync   string
}

// Register declares the engine flags on fs.
func (e *Engine) Register(fs *flag.FlagSet) {
	fs.StringVar(&e.Config, "config", "", "load a saved configuration instead of running the advisor")
	fs.StringVar(&e.DB, "db", "", "open a saved database snapshot (f2dbcli \\save, f2dbd -save) instead of a data set")
	fs.StringVar(&e.Durable.Dir, "wal-dir", "", "durable directory (snapshot + write-ahead log + segments); recovers on open, then group-commits every completed batch")
	fs.StringVar(&e.Fsync, "fsync", "always", "WAL fsync policy with -wal-dir: always, never, or an integer n (fsync every n batches)")
	fs.IntVar(&e.Durable.CompactEvery, "compact-every", 256, "with -wal-dir: compact the sealed WAL span into a segment of raw batch columns every n batches (0 disables)")
}

// Metrics configures the sidecar HTTP listener.
type Metrics struct {
	Addr  string
	Pprof bool
}

// Register declares the metrics flags on fs.
func (m *Metrics) Register(fs *flag.FlagSet) {
	fs.StringVar(&m.Addr, "metrics", "", "serve Prometheus-format metrics on this address (e.g. :9090)")
	fs.BoolVar(&m.Pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ on the -metrics listener")
}

// Check rejects -pprof without -metrics; a binary calls it before the
// expensive part of its start-up.
func (m *Metrics) Check() error {
	if m.Pprof && m.Addr == "" {
		return fmt.Errorf("-pprof mounts on the metrics listener; set -metrics too")
	}
	return nil
}

// Serve does nothing without -metrics; with it, it serves regs on
// /metrics in Prometheus text format for the life of the process — and
// with -pprof the net/http/pprof handlers under /debug/pprof/ on the same
// listener (read-only; a profile costs its sampling overhead only while a
// request for it is in flight) — and reports where it is bound.
func (m *Metrics) Serve(logf Logf, regs ...*metrics.Registry) error {
	if err := m.Check(); err != nil || m.Addr == "" {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler(regs...))
	if m.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	ln, err := net.Listen("tcp", m.Addr)
	if err != nil {
		return err
	}
	go func() {
		fmt.Fprintln(os.Stderr, "metrics server:", http.Serve(ln, mux))
	}()
	logf("serving metrics on http://%s/metrics", ln.Addr())
	return nil
}
