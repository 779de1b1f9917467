package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cubefc/internal/coord"
	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/datasets"
	"cubefc/internal/f2db"
	"cubefc/internal/fclient"
	"cubefc/internal/segment"
	"cubefc/internal/server"
)

const (
	servingNodes = 10_000 // CubeGenForNodes(10_000, 2): 10 201 nodes, 6 889 base series
	advisorNodes = 5_000  // CubeGenForNodes(5_000, 2): 5 041 nodes
	numShards    = 2
	// dataSeed fixes the data set: across data seeds the advisor's
	// configuration swings from 12 to 23 models, and runs with different
	// --seed would measure the cube, not the code.
	dataSeed = 1

	// advisorGamma pins the preselection threshold. FixedGamma with Gamma0
	// unset examines no candidate at all, and so does Gamma0 = 1 on the
	// 10 201-node cube; at 0.5 both cubes examine 48 candidates and build
	// 24 models, and the result repeats bit for bit.
	advisorGamma      = 0.5
	advisorIterations = 12

	// The daemon's flag defaults, spelled out: the library default of
	// coord.Options.CacheSize is 0, which would silently disable the
	// coordinator cache the daemon runs with.
	planCacheSize  = 256
	forecastMemo   = 4096
	coordCacheSize = 1024
	// compactEvery is lower than the daemon's 256 so that several
	// compactions complete inside one run.
	compactEvery = 32
)

// newGraph generates the data set and builds its hyper graph. Every engine
// needs a graph of its own: a graph's series grow with every insert batch.
func newGraph(nodes int) (*cube.Graph, error) {
	return datasets.GenCube(dataSeed, datasets.CubeGenForNodes(nodes, 2)).Graph()
}

func advisorOptions(seed int64) core.Options {
	return core.Options{
		FixedGamma:    true,
		Gamma0:        advisorGamma,
		MaxIterations: advisorIterations,
		Parallelism:   runtime.NumCPU(),
		Seed:          seed,
	}
}

// runAdvisor is core.Run with the advisor's counters kept. around, when
// non-nil, is handed every iteration to run (the trace hooks in here).
func runAdvisor(g *cube.Graph, seed int64, around func(step func())) (*core.Configuration, core.AdvisorMetrics, error) {
	a, err := core.NewAdvisor(g, advisorOptions(seed))
	if err != nil {
		return nil, core.AdvisorMetrics{}, err
	}
	defer a.Close()
	for {
		var done bool
		if around == nil {
			done, err = a.Step()
		} else {
			around(func() { done, err = a.Step() })
		}
		if err != nil {
			return nil, core.AdvisorMetrics{}, err
		}
		if done {
			return a.Configuration(), a.Metrics(), nil
		}
	}
}

func engineOptions(strategy f2db.InvalidationStrategy) f2db.Options {
	return f2db.Options{
		Strategy:          strategy,
		PlanCacheSize:     planCacheSize,
		ForecastCacheSize: forecastMemo,
	}
}

// shardNode is one durable engine behind its own wire server.
type shardNode struct {
	dir  string
	fs   *timedFS // nil on an untraced stack
	dur  *f2db.Durable
	srv  *server.Server
	addr string
	done chan error
}

// stack is the system under test, assembled in-process from the public
// constructors the daemon uses: a front wire server over a coordinator
// over numShards wire servers, each over a durable engine whose WAL lives
// under dir.
type stack struct {
	dir      string
	strategy f2db.InvalidationStrategy
	rec      *recorder
	nodes    int

	g        *cube.Graph // routing and statement-rendering graph; never advanced
	cfgImage []byte      // the advisor's configuration, as every engine loads it
	advisor  core.AdvisorMetrics
	smape    float64
	models   int

	shards    []*shardNode
	co        *coord.Coordinator
	front     *server.Server
	frontAddr string
	frontDone chan error
}

// newEngine builds a fresh non-durable engine over its own graph with the
// stack's configuration: the build function of every shard, and the twin.
func (s *stack) newEngine(opts f2db.Options) (*f2db.DB, error) {
	g, err := newGraph(s.nodes)
	if err != nil {
		return nil, err
	}
	cfg, err := f2db.LoadConfiguration(bytes.NewReader(s.cfgImage), g)
	if err != nil {
		return nil, err
	}
	return f2db.Open(g, cfg, opts)
}

func serve(b server.Backend) (*server.Server, string, chan error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	srv := server.NewBackend(b, server.Options{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return srv, ln.Addr().String(), done, nil
}

// buildStack generates the cube, runs the advisor, opens the durable
// shards and wires servers and coordinator together. Everything here is
// set-up a user of the system pays; its duration is setup_s. With a
// recorder the layer boundaries are wrapped in the tracing decorators.
func buildStack(dir string, nodes int, seed int64, strategy f2db.InvalidationStrategy, rec *recorder) (_ *stack, err error) {
	s := &stack{dir: dir, strategy: strategy, rec: rec, nodes: nodes}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.g, err = newGraph(nodes); err != nil {
		return nil, err
	}
	cfg, met, err := runAdvisor(s.g, seed, nil)
	if err != nil {
		return nil, err
	}
	s.advisor, s.smape, s.models = met, cfg.Error(), cfg.NumModels()
	var img bytes.Buffer
	if err := f2db.SaveConfiguration(&img, cfg); err != nil {
		return nil, err
	}
	s.cfgImage = img.Bytes()

	addrs := make([]string, numShards)
	for i := range addrs {
		sh, err := s.openShard(filepath.Join(dir, fmt.Sprintf("shard%d", i)), i)
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, sh)
		addrs[i] = sh.addr
	}
	s.co, err = coord.New(f2db.NewPlanner(s.g, 0), addrs, coord.Options{CacheSize: coordCacheSize})
	if err != nil {
		return nil, err
	}
	var front server.Backend = s.co
	if rec != nil {
		front = tracedBackend{Backend: s.co, rec: rec, name: "coord"}
	}
	s.front, s.frontAddr, s.frontDone, err = serve(front)
	return s, err
}

// openShard opens (or, after a run, recovers) the durable engine in dir
// and serves it. -fsync always, as the daemon defaults.
func (s *stack) openShard(dir string, idx int) (*shardNode, error) {
	sh := &shardNode{dir: dir}
	dopts := f2db.DurableOptions{Dir: dir, Sync: segment.SyncAlways, CompactEvery: compactEvery}
	if s.rec != nil {
		sh.fs = &timedFS{FS: segment.OSFS{}, rec: s.rec}
		dopts.FS = sh.fs
	}
	opts := engineOptions(s.strategy)
	var err error
	sh.dur, err = f2db.OpenDurable(dopts, opts, func() (*f2db.DB, error) { return s.newEngine(opts) })
	if err != nil {
		return nil, err
	}
	var backend server.Backend = engineBackend{db: sh.dur.DB()}
	if s.rec != nil {
		backend = tracedBackend{Backend: backend, rec: s.rec, name: fmt.Sprintf("shard%d", idx)}
	}
	sh.srv, sh.addr, sh.done, err = serve(backend)
	if err != nil {
		sh.dur.Close()
		return nil, err
	}
	return sh, nil
}

func shutdown(srv *server.Server, done chan error) {
	if srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	<-done
}

// stop shuts the serving processes down front to back and closes the
// engines, leaving the durable directories in place.
func (s *stack) stop() error {
	shutdown(s.front, s.frontDone)
	s.front = nil
	if s.co != nil {
		s.co.Close()
		s.co = nil
	}
	var errs []error
	for _, sh := range s.shards {
		shutdown(sh.srv, sh.done)
		sh.srv = nil
		if sh.dur != nil {
			errs = append(errs, sh.dur.Close())
			sh.dur = nil
		}
	}
	return errors.Join(errs...)
}

// close stops the stack and removes its durable directories.
func (s *stack) close() error {
	return errors.Join(s.stop(), os.RemoveAll(s.dir))
}

// dial opens one single-connection client to addr.
func dial(addr string) (*fclient.Client, error) {
	return fclient.Dial(addr, fclient.Options{PoolSize: 1})
}

// settle waits until every replica has applied the whole statement log
// and then re-fits whatever models are still invalid on each, exactly as
// the next queries touching them would. Lazy re-estimation makes a model's
// parameters depend on the generation at which it was re-fitted, so the
// replicas (and the twin) only stay bit-identical if every model is valid
// again before the next time point begins; the readers' own queries do
// almost all of that work, and this mops up the models they did not reach.
func (s *stack) settle() error {
	deadline := time.Now().Add(30 * time.Second)
	for !s.co.CaughtUp() {
		if time.Now().After(deadline) {
			return errors.New("bench: replicas did not catch up within 30s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	for _, sh := range s.shards {
		sh.dur.DB().ReestimateInvalid()
	}
	return nil
}

// diskBytes is the size of everything under the shards' durable dirs.
func (s *stack) diskBytes() (int64, error) {
	var total int64
	err := filepath.Walk(s.dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return err
	})
	return total, err
}
