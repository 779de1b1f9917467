package daemon

import (
	"fmt"
	"os"

	"cubefc/internal/core"
	"cubefc/internal/csvload"
	"cubefc/internal/cube"
	"cubefc/internal/experiments"
	"cubefc/internal/f2db"
	"cubefc/internal/segment"
)

// withFile runs read over the file at path; every file this package
// opens is only read, so Close's error carries nothing.
func withFile(path string, read func(*os.File) error) error {
	fh, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	return read(fh)
}

// Graph builds the data cube from the CSV fact table or the built-in data
// set and returns it with the name to show for it.
func (s *Source) Graph() (*cube.Graph, string, error) {
	if s.CSV == "" {
		ds, err := experiments.LoadDataset(s.Dataset, s.Scale)
		if err != nil {
			return nil, "", err
		}
		g, err := ds.Graph()
		return g, ds.Name, err
	}
	specs, err := csvload.ParseSpec(s.Dims)
	if err != nil {
		return nil, "", err
	}
	var g *cube.Graph
	err = withFile(s.CSV, func(fh *os.File) error {
		dims, base, err := csvload.Load(fh, specs, csvload.Options{Period: s.Period})
		if err != nil {
			return err
		}
		g, err = cube.NewGraph(dims, base)
		return err
	})
	return g, s.CSV, err
}

// Handle is a running engine and everything Open and its callers started
// around it.
type Handle struct {
	DB *f2db.DB
	// Durable is nil without -wal-dir.
	Durable *f2db.Durable
	// Graph is the cube Open built; nil when the engine came out of a
	// recovered durable directory instead.
	Graph *cube.Graph
	// Name is what to call the served data: the data set or the durable
	// directory.
	Name string
}

// Open builds the engine over src: the cube plus a loaded (-config) or
// advised configuration. With -wal-dir that build only runs when the
// directory holds no snapshot yet; otherwise the directory is recovered
// and src is not read at all.
func (e *Engine) Open(src *Source, logf Logf) (*Handle, error) {
	h := &Handle{}
	opts := e.Options
	opts.Strategy = f2db.TimeBased{Every: 8}
	build := func() (db *f2db.DB, err error) {
		if h.Graph, h.Name, err = src.Graph(); err != nil {
			return nil, err
		}
		var cfg *core.Configuration
		if e.Config != "" {
			err = withFile(e.Config, func(fh *os.File) error {
				cfg, err = f2db.LoadConfiguration(fh, h.Graph)
				return err
			})
		} else {
			logf("running advisor ...")
			cfg, err = core.Run(h.Graph, core.Options{Seed: 42})
		}
		if err != nil {
			return nil, err
		}
		logf("configuration: error=%.4f models=%d", cfg.Error(), cfg.NumModels())
		return f2db.Open(h.Graph, cfg, opts)
	}
	dopts := e.Durable
	var err error
	if dopts.Dir == "" {
		h.DB, err = build()
		return h, err
	}
	if dopts.Sync, err = segment.ParseSyncPolicy(e.Fsync); err != nil {
		return nil, err
	}
	if h.Durable, err = f2db.OpenDurable(dopts, opts, build); err != nil {
		return nil, err
	}
	h.DB = h.Durable.DB()
	if rec := h.Durable.Recovery; rec.FreshBuild {
		h.Name = fmt.Sprintf("%s (durable in %s)", h.Name, dopts.Dir)
		logf("durable dir %s initialized (snapshot at generation %d, fsync=%s)", dopts.Dir, rec.SnapshotGen, dopts.Sync)
	} else {
		h.Name = dopts.Dir
		logf("recovered %s: snapshot generation %d, %d WAL batches replayed from %d file(s), %d torn bytes discarded",
			dopts.Dir, rec.SnapshotGen, rec.WALBatches, rec.WALFiles, rec.TornBytes)
	}
	return h, nil
}

// Close runs, once no request is in flight, the last checkpoint — so the
// next Open starts from a snapshot of exactly the served state with an
// empty WAL instead of replaying the session — and then closes the WAL.
// Without -wal-dir there is nothing to persist. The DB stays readable.
func (h *Handle) Close() error {
	if h.Durable == nil {
		return nil
	}
	if err := h.Durable.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := h.Durable.Close(); err != nil {
		return fmt.Errorf("closing WAL: %w", err)
	}
	return nil
}
