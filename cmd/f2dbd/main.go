// Command f2dbd is the F²DB network daemon: it assembles an engine through
// internal/daemon (a data source or a saved snapshot, a loaded or advised
// model configuration, optionally a durable directory) and serves forecast
// queries over the length-prefixed wire protocol (internal/wire) to
// fclient connections. README.md has the flag reference.
//
// Usage:
//
//	f2dbd -dataset tourism -addr :7071
//	f2dbd -db snapshot.f2db -addr :7071 -metrics :9090 -save snapshot.f2db
//	f2dbd -dataset tourism -wal-dir /var/lib/f2db -fsync always -compact-every 256
//	f2dbd -coordinator -shards host1:7071,host2:7071 -dataset tourism -addr :7070
//
// With -wal-dir the daemon is crash-durable: on boot it recovers the
// directory (snapshot, then segments, then the WAL tail —
// discarding a torn final record), and while serving it group-commits
// every completed insert batch to the WAL before applying it.
//
// In -coordinator mode the daemon holds no engine: it routes statements
// to the f2dbd shards listed in -shards (each serving a full replica of
// the same data) over the same wire protocol it serves, so clients are
// indifferent to whether they talk to a shard or the coordinator. The
// data source (or snapshot) is still loaded — for its hyper graph, which
// the statement planner resolves queries against.
//
// On SIGTERM or SIGINT the daemon stops accepting connections, answers
// every in-flight request, checkpoints the durable directory, optionally
// saves a snapshot (-save), and exits 0 on a clean drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cubefc/internal/coord"
	"cubefc/internal/daemon"
	"cubefc/internal/f2db"
	"cubefc/internal/metrics"
	"cubefc/internal/server"
)

// options are the parsed flags: the three shared groups plus what only the
// daemon has — where it listens, its server limits, coordinator mode, and
// what it writes while serving and on the way out.
type options struct {
	src          daemon.Source
	eng          daemon.Engine
	met          daemon.Metrics
	addr         string
	save         string
	srv          server.Options
	drainTimeout time.Duration
	coordinator  bool
	shards       string
	coord        coord.Options
	ckpt         f2db.CheckpointPolicy
}

func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	o.src.Register(fs)
	o.eng.Register(fs)
	o.met.Register(fs)
	fs.StringVar(&o.addr, "addr", ":7071", "wire-protocol listen address")
	fs.StringVar(&o.save, "save", "", "save a database snapshot to this path after draining")
	fs.IntVar(&o.srv.MaxConns, "max-conns", 0, "maximum concurrent client connections (0 = default 256)")
	fs.DurationVar(&o.srv.RequestTimeout, "request-timeout", 0, "per-request processing timeout (0 = default 30s)")
	fs.DurationVar(&o.srv.IdleTimeout, "idle-timeout", 0, "idle connection timeout (0 = default 5m)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "shutdown drain deadline before in-flight connections are force-closed")
	fs.BoolVar(&o.coordinator, "coordinator", false, "route statements to the -shards cluster instead of serving a local engine")
	fs.StringVar(&o.shards, "shards", "", "comma-separated f2dbd shard addresses (coordinator mode)")
	fs.IntVar(&o.coord.CacheSize, "coord-cache-size", 1024, "coordinator mode: statements whose plan and epoch-invalidated result are kept to answer repeats without fanning out (0 = off)")
	fs.IntVar(&o.coord.LogRetain, "log-retain", 0, "coordinator mode: statement-log entries retained for restart realignment (0 = default 4096, negative = unlimited)")
	fs.DurationVar(&o.ckpt.Every, "checkpoint-every", 0, "with -wal-dir: background checkpoint after this much time, if batches were applied (0 disables)")
	fs.Int64Var(&o.ckpt.EveryBatches, "checkpoint-batches", 0, "with -wal-dir: background checkpoint every n applied batches (0 disables)")
	return o
}

// check rejects flag combinations that name a tier the process will not
// have, before anything is built.
func (o *options) check() error {
	switch {
	case (o.ckpt.Every > 0 || o.ckpt.EveryBatches > 0) && o.eng.Durable.Dir == "":
		return fmt.Errorf("-checkpoint-every/-checkpoint-batches need -wal-dir")
	case o.coordinator && o.shards == "":
		return fmt.Errorf("-coordinator requires -shards")
	case o.coordinator && o.eng.Durable.Dir != "":
		return fmt.Errorf("-wal-dir needs a local engine; the shards own the data in coordinator mode")
	case o.coordinator && o.save != "":
		return fmt.Errorf("-save needs a local engine; the shards own the data in coordinator mode")
	}
	return o.met.Check()
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "f2dbd: "+format+"\n", args...)
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	if err := o.check(); err != nil {
		fail(err)
	}
	o.srv.Logf, o.coord.Logf = logf, logf

	var (
		h       *daemon.Handle
		co      *coord.Coordinator
		srv     *server.Server
		backend *metrics.Registry
		serving string
	)
	if o.coordinator {
		addrs := strings.Split(o.shards, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
		planner, name, err := openPlanner(o)
		if err != nil {
			fail(err)
		}
		if co, err = coord.New(planner, addrs, o.coord); err != nil {
			fail(err)
		}
		srv, backend = server.NewBackend(co, o.srv), co.Metrics().Registry()
		serving = fmt.Sprintf("coordinating %s across %d shards", name, len(addrs))
	} else {
		var err error
		if h, err = o.eng.Open(&o.src, logf); err != nil {
			fail(err)
		}
		if o.ckpt.Every > 0 || o.ckpt.EveryBatches > 0 {
			h.Checkpoints(o.ckpt, logf)
		}
		srv, backend = server.New(h.DB, o.srv), h.DB.Registry()
		serving = fmt.Sprintf("serving %s (%d nodes, %d models)", h.Name, h.DB.Graph().NumNodes(), h.DB.Configuration().NumModels())
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fail(err)
	}
	fmt.Printf("f2dbd: %s on %s\n", serving, ln.Addr())
	if err := o.met.Serve(logf, backend, srv.Metrics().Registry()); err != nil {
		fail(err)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-errc:
		fail(err)
	case sig := <-sigc:
		fmt.Printf("f2dbd: %v: draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
		drainErr := srv.Shutdown(ctx)
		cancel()
		if co != nil {
			_ = co.Close()
		} else if err := h.Close(); err != nil {
			fail(err)
		} else if h.Durable != nil {
			fmt.Printf("f2dbd: checkpointed durable dir %s\n", o.eng.Durable.Dir)
		}
		if o.save != "" {
			// WriteSnapshotFile is the shared crash-safe protocol (tmp file,
			// fsync, rename, directory fsync); a bare tmp+rename leaves two
			// windows a crash can fall into — the renamed file's blocks still
			// unflushed, or the rename's directory entry itself lost.
			if err := f2db.WriteSnapshotFile(nil, o.save, h.DB); err != nil {
				fail(err)
			}
			fmt.Printf("f2dbd: database saved to %s\n", o.save)
		}
		if drainErr != nil {
			fail(fmt.Errorf("drain deadline exceeded: %w", drainErr))
		}
		fmt.Println("f2dbd: drained cleanly")
	}
}

// openPlanner loads just the statement router the coordinator needs: a
// planner over a -db snapshot's graph, the data source's otherwise.
// Shards must serve replicas of the same data, or routing and results
// drift.
func openPlanner(o *options) (*f2db.Planner, string, error) {
	if o.eng.DB != "" {
		fh, err := os.Open(o.eng.DB)
		if err != nil {
			return nil, "", err
		}
		defer fh.Close()
		db, err := f2db.LoadDatabase(fh, f2db.Options{Strategy: f2db.Never{}})
		if err != nil {
			return nil, "", err
		}
		return db.Planner(), o.eng.DB, nil
	}
	g, name, err := o.src.Graph()
	if err != nil {
		return nil, "", err
	}
	return f2db.NewPlanner(g, 0), name, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "f2dbd:", err)
	os.Exit(1)
}
