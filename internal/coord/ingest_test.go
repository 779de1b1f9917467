package coord

import (
	"bytes"
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"cubefc/internal/core"
	"cubefc/internal/datasets"
	"cubefc/internal/f2db"
	"cubefc/internal/fclient"
	"cubefc/internal/server"
	"cubefc/internal/workload"
)

// TestClusterInsertAllocs is the write path's allocation gate end to end, all
// in this process: a client sends 256-row INSERTs over loopback to a front
// server, whose coordinator logs each one and replays it to two shard servers
// over loopback. Averaged over eight full time points of a 512-series cube,
// counted until both shards have applied them, an INSERT allocates 3.31
// objects — the three servers' copies of the statement, and a share of the
// log's growth — and the gate allows 0.5 more. A coordinator that allocated
// each log entry, and a route that returned the statement's base IDs in a
// slice, made it 5.31.
func TestClusterInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const rows, warm, points = 256, 2, 8
	// One P from the start: a pooled object put on a P that GOMAXPROCS
	// then takes away is allocated again.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g, err := datasets.GenCube(1, datasets.CubeGenOptions{DimCards: [][]int{{32, 4}, {16, 2}}}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	src, err := f2db.Open(g, core.NewConfiguration(g, 12), f2db.Options{Strategy: f2db.Never{}})
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := f2db.SaveDatabase(&img, src); err != nil {
		t.Fatal(err)
	}
	shards := []*testShard{startShardOn(t, img.Bytes(), "127.0.0.1:0"), startShardOn(t, img.Bytes(), "127.0.0.1:0")}
	for _, s := range shards {
		defer s.stop(t)
	}
	co, err := New(f2db.NewPlanner(g, 0), []string{shards[0].addr, shards[1].addr}, testCoordOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	front := server.NewBackend(co, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- front.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = front.Shutdown(ctx)
		<-done
	}()
	cl, err := fclient.Dial(ln.Addr().String(), fclient.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	gen := workload.New(g, 0)
	var stmts []string
	for k := 0; k < warm+points; k++ {
		for lo := 0; lo < len(g.BaseIDs); lo += rows {
			batch := make(map[int]float64, rows)
			for i, id := range g.BaseIDs[lo:min(lo+rows, len(g.BaseIDs))] {
				batch[id] = float64(100*k + i%17)
			}
			stmts = append(stmts, gen.InsertSQL(batch))
		}
	}
	perPoint := len(stmts) / (warm + points)
	// apply sends time points [from, to) and waits until both shards hold
	// them, so their allocations are counted too.
	apply := func(from, to int) {
		for _, sql := range stmts[from*perPoint : to*perPoint] {
			if err := cl.Exec(sql); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "both shards to apply every time point", func() bool {
			return shards[0].db.Stats().Batches >= to && shards[1].db.Stats().Batches >= to
		})
	}
	apply(0, warm)
	runtime.GC() // so that no collection falls inside the window
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	apply(warm, warm+points)
	runtime.ReadMemStats(&after)
	perInsert := float64(after.Mallocs-before.Mallocs) / float64(points*perPoint)
	t.Logf("a %d-row INSERT allocates %.2f objects through the cluster", rows, perInsert)
	if perInsert > 3.81 {
		t.Fatalf("a %d-row INSERT allocates %.2f objects through the cluster, want ≤ 3.81", rows, perInsert)
	}
}
