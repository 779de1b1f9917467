package coord

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"cubefc/internal/f2db"
	"cubefc/internal/fclient"
)

// TestLogTrimBounded is the bounded-log regression: with a small
// Options.LogRetain, a long run of Execs keeps only the retention window
// in memory (trimBase advances, trimmed entries are counted), and a shard
// restarted from a MID-HISTORY snapshot — its batch count inside the
// retained log — resumes past the trim horizon,
// replays only the tail, and converges bit-exact with the twin.
func TestLogTrimBounded(t *testing.T) {
	g, data := buildCube(t)
	twin := loadEngine(t, data)
	s0 := startShardOn(t, data, "127.0.0.1:0")
	s1 := startShardOn(t, data, "127.0.0.1:0")
	defer s0.stop(t)

	opts := testCoordOpts(t)
	opts.LogRetain = 8
	co, err := New(f2db.NewPlanner(g, 0), []string{s0.addr, s1.addr}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	exec := func(i int) {
		t.Helper()
		ins := batchInsertSQL(i * 10)
		if err := co.Exec(ins); err != nil {
			t.Fatalf("exec %d: %v", i, err)
		}
		if err := twin.Exec(ins); err != nil {
			t.Fatalf("twin exec %d: %v", i, err)
		}
	}

	// Phase 1: six full batches, then snapshot shard 1 mid-history — its
	// engine holds 6 batches.
	for i := 0; i < 6; i++ {
		exec(i)
	}
	waitFor(t, "phase 1 applied", co.CaughtUp)
	var mid bytes.Buffer
	if err := f2db.SaveDatabase(&mid, s1.db); err != nil {
		t.Fatal(err)
	}

	// Phase 2: four more batches push the log past the retention window;
	// the head trims behind the slowest cursor.
	for i := 6; i < 10; i++ {
		exec(i)
	}
	waitFor(t, "phase 2 applied", co.CaughtUp)
	co.mu.Lock()
	retained, base, horizon := len(co.log), co.trimBase, co.start+uint64(co.trimBase)
	co.mu.Unlock()
	if retained > opts.LogRetain {
		t.Fatalf("retained log holds %d entries, want <= %d", retained, opts.LogRetain)
	}
	if base != 2 || horizon != 2 {
		t.Fatalf("trimBase=%d, trim horizon at batch %d, want 2 and 2", base, horizon)
	}
	if n := co.Metrics().LogTrimmed.Load(); n != 2 {
		t.Fatalf("LogTrimmed = %d, want 2", n)
	}
	if stats := co.StatsText(); !strings.Contains(stats, "log=10 retained=8 trimmed=2") {
		t.Fatalf("StatsText does not show the trim: %q", stats)
	}
	// Counts still reports total applied rows, trim or no trim.
	if inserts, _ := co.Counts(); inserts != 80 {
		t.Fatalf("Counts = %d inserts, want 80", inserts)
	}

	// Phase 3: shard 1 dies; one more Exec trips its worker into the down
	// state (and trims one more entry — the down shard's frozen cursor is
	// past the window). Then it restarts from the mid-history snapshot:
	// its 6 batches resume it at the retained entry 6.
	s1.stop(t)
	exec(10)
	waitFor(t, "outage noticed", func() bool { return co.Metrics().ShardsDown.Load() == 1 })
	s1 = startShardOn(t, mid.Bytes(), s1.addr)
	defer s1.stop(t)
	waitFor(t, "mid-history replay caught up", co.CaughtUp)
	if co.Metrics().ShardsDead.Load() != 0 {
		t.Fatal("mid-history restart was fenced; resuming in the trimmed log failed")
	}
	if co.Metrics().Shards[1].Replays.Load() == 0 {
		t.Fatal("restart did not trigger a replay")
	}

	// Convergence proof: the restarted shard answers every node bit-exact
	// against the twin — snapshot state plus tail replay reproduced the
	// full history.
	direct, err := fclient.Dial(s1.addr, fclient.Options{PoolSize: 1})
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

// TestLogTrimFencing: a shard that restarts with a batch count behind the
// trim horizon cannot converge by log replay (its entries are
// gone) and is fenced dead — loudly — while the rest of the cluster keeps
// serving reads and writes, and trimming no longer waits for it.
func TestLogTrimFencing(t *testing.T) {
	g, data := buildCube(t)
	twin := loadEngine(t, data)
	s0 := startShardOn(t, data, "127.0.0.1:0")
	s1 := startShardOn(t, data, "127.0.0.1:0")
	defer s0.stop(t)

	var logMu sync.Mutex
	var logs []string
	opts := testCoordOpts(t)
	opts.LogRetain = 2
	opts.Logf = func(format string, args ...any) {
		logMu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		logMu.Unlock()
		t.Logf(format, args...)
	}
	co, err := New(f2db.NewPlanner(g, 0), []string{s0.addr, s1.addr}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	exec := func(i int) {
		t.Helper()
		ins := batchInsertSQL(i * 10)
		if err := co.Exec(ins); err != nil {
			t.Fatalf("exec %d: %v", i, err)
		}
		if err := twin.Exec(ins); err != nil {
			t.Fatalf("twin exec %d: %v", i, err)
		}
	}
	for i := 0; i < 6; i++ {
		exec(i)
	}
	waitFor(t, "batches applied", co.CaughtUp)

	// Kill shard 1 and restart it from the BASE snapshot: zero batches, far
	// behind the trim horizon — it must be fenced, not replayed.
	s1.stop(t)
	exec(6) // trips the worker into the down state
	waitFor(t, "outage noticed", func() bool { return co.Metrics().ShardsDown.Load() == 1 })
	s1 = startShardOn(t, data, s1.addr)
	defer s1.stop(t)
	waitFor(t, "fenced", func() bool { return co.Metrics().ShardsDead.Load() == 1 })
	if n := co.Metrics().ShardsDown.Load(); n != 0 {
		t.Fatalf("fenced shard still counted down: ShardsDown=%d", n)
	}
	logMu.Lock()
	fencedLogged := false
	for _, l := range logs {
		if strings.Contains(l, "behind the trim horizon") {
			fencedLogged = true
		}
	}
	logMu.Unlock()
	if !fencedLogged {
		t.Fatal("fencing was not logged")
	}
	if stats := co.StatsText(); !strings.Contains(stats, "state=dead") {
		t.Fatalf("StatsText does not show the fenced shard: %q", stats)
	}

	// The cluster keeps serving without the fenced shard: writes apply,
	// every node answers (failing over to the survivor), and the log keeps
	// trimming — the dead shard no longer holds the horizon.
	exec(7)
	waitFor(t, "survivor applied", co.CaughtUp)
	for id := 0; id < g.NumNodes(); id++ {
		q := querySQLFor(g, id)
		got, err := co.Query(q)
		if err != nil {
			t.Fatalf("node %d after fencing: %v", id, err)
		}
		want, err := twin.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "after fencing "+q, got, want)
	}
	co.mu.Lock()
	retained := len(co.log)
	co.mu.Unlock()
	if retained > opts.LogRetain {
		t.Fatalf("retained log holds %d entries with a dead shard, want <= %d", retained, opts.LogRetain)
	}
}
