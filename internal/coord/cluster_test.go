package coord

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"cubefc/internal/f2db"
	"cubefc/internal/fclient"
	"cubefc/internal/server"
	"cubefc/internal/workload"
)

// resultLog collects workload query results by global sequence index; the
// remote run fills it from concurrent reader goroutines.
type resultLog struct {
	mu      sync.Mutex
	results map[int]*f2db.Result
}

func newResultLog() *resultLog {
	return &resultLog{results: make(map[int]*f2db.Result)}
}

func (l *resultLog) add(i int, res *f2db.Result) {
	l.mu.Lock()
	l.results[i] = res
	l.mu.Unlock()
}

// TestClusterKillRestartTwin is the cluster acceptance test: a 3-shard
// cluster behind a coordinator (served over the wire, driven by the
// remote workload generator) has one shard killed mid-run and later
// restarted from the base snapshot. Every query result across the whole
// run — before, during, and after the outage — must match a
// single-process twin engine running the identical workload bit-for-bit,
// and the restarted replica must converge to the twin's exact state
// through log replay.
func TestClusterKillRestartTwin(t *testing.T) {
	g, data := buildCube(t)
	twin := loadEngine(t, data)

	shards := make([]*testShard, 3)
	addrs := make([]string, 3)
	for i := range shards {
		shards[i] = startShardOn(t, data, "127.0.0.1:0")
		addrs[i] = shards[i].addr
	}
	defer shards[0].stop(t)
	defer shards[2].stop(t)

	co, err := New(f2db.NewPlanner(g, 0), addrs, testCoordOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	// Front the coordinator with the wire server, the -coordinator
	// deployment shape, so the workload generator drives it remotely.
	front := server.NewBackend(co, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	frontDone := make(chan error, 1)
	go func() { frontDone <- front.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = front.Shutdown(ctx)
		<-frontDone
	}()

	// Two generators with the same seed over the same (never-mutated)
	// graph: the remote and local statement streams are identical, so
	// results compare pairwise by sequence index within each phase.
	genRemote := workload.New(g, 11)
	genLocal := workload.New(g, 11)
	const (
		pointsPerPhase = 2
		queriesPerIns  = 1
		writers        = 2
		readers        = 2
	)
	runPhase := func(phase string, remote bool, log *resultLog) {
		t.Helper()
		opts := workload.Options{
			TimePoints:       pointsPerPhase,
			QueriesPerInsert: queriesPerIns,
			InsertWriters:    writers,
			UseSQL:           true,
			OnQueryResult:    log.add,
		}
		var err error
		if remote {
			opts.RemoteAddr = ln.Addr().String()
			opts.RemoteReaders = readers
			_, err = workload.Run(nil, genRemote, opts)
		} else {
			_, err = workload.Run(twin, genLocal, opts)
		}
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
	}
	comparePhases := func(phase string, remote, local *resultLog) {
		t.Helper()
		if len(remote.results) != len(local.results) {
			t.Fatalf("%s: %d remote results vs %d local", phase, len(remote.results), len(local.results))
		}
		for i, want := range local.results {
			got, ok := remote.results[i]
			if !ok {
				t.Fatalf("%s: remote run missing query %d", phase, i)
			}
			sameResult(t, phase, got, want)
		}
	}

	// Phase 1: all shards healthy.
	r1, l1 := newResultLog(), newResultLog()
	runPhase("phase1 remote", true, r1)
	runPhase("phase1 local", false, l1)
	comparePhases("phase1", r1, l1)

	// Phase 2: shard 1 is killed; its partition fails over and inserts
	// keep applying on the survivors while its log entries queue.
	shards[1].stop(t)
	r2, l2 := newResultLog(), newResultLog()
	runPhase("phase2 remote", true, r2)
	runPhase("phase2 local", false, l2)
	comparePhases("phase2", r2, l2)
	waitFor(t, "outage noticed", func() bool { return co.Metrics().ShardsDown.Load() == 1 })

	// Phase 3: shard 1 restarts on its old address as a fresh process over
	// the base snapshot — zero batches — WHILE the workload continues. The
	// coordinator must resume it at the log's first time point and replay
	// the full log concurrently with live traffic.
	restarted := make(chan *testShard, 1)
	go func() {
		time.Sleep(20 * time.Millisecond)
		restarted <- startShardOn(t, data, shards[1].addr)
	}()
	r3, l3 := newResultLog(), newResultLog()
	runPhase("phase3 remote", true, r3)
	runPhase("phase3 local", false, l3)
	comparePhases("phase3", r3, l3)
	shards[1] = <-restarted
	defer shards[1].stop(t)

	// The restarted replica must catch up and rejoin.
	waitFor(t, "replay caught up", co.CaughtUp)
	if co.Metrics().Shards[1].Replays.Load() == 0 {
		t.Fatal("restart did not trigger a replay")
	}
	if co.Metrics().ShardsDead.Load() != 0 {
		t.Fatal("a shard was fenced; the restart did not resume in the log")
	}

	// Convergence proof: ask the restarted shard directly (bypassing the
	// coordinator) and the twin for every node's forecast; replaying the
	// log over the snapshot must have reproduced the twin's exact state.
	direct, err := fclient.Dial(shards[1].addr, fclient.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	for id := 0; id < g.NumNodes(); id++ {
		q := querySQLFor(g, id)
		got, err := direct.Query(q)
		if err != nil {
			t.Fatalf("restarted shard, node %d: %v", id, err)
		}
		want, err := twin.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "converged "+q, got, want)
	}
}
