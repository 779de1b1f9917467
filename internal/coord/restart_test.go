package coord

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"cubefc/internal/cube"
	"cubefc/internal/f2db"
	"cubefc/internal/fclient"
	"cubefc/internal/segment"
	"cubefc/internal/server"
	"cubefc/internal/wire"
)

// The restart regressions: each drives a cluster through a shard restart
// and holds every replica that stays in the log to a twin engine that took
// the same statements and never restarted, byte for byte on the wire
// (wire.AppendResult of every node's answer).

// rowsSQL renders one INSERT of the bases at the given BaseIDs ordinals,
// the values counting up from v.
func rowsSQL(g *cube.Graph, ords []int, v int) string {
	rows := make([]string, len(ords))
	for i, o := range ords {
		id := g.BaseIDs[o]
		rows[i] = fmt.Sprintf("('%s', '%s', %d)", g.CellOf(id, 0).Value, g.CellOf(id, 1).Value, v+i)
	}
	return "INSERT INTO facts VALUES " + strings.Join(rows, ", ")
}

// startDurableShard serves a durable replica on fs (SyncAlways), built from
// the snapshot bytes on first open and recovered from fs afterwards.
func startDurableShard(t *testing.T, fs *segment.MemFS, data []byte, addr string) *testShard {
	t.Helper()
	dur, err := f2db.OpenDurable(f2db.DurableOptions{Dir: "shard", FS: fs}, f2db.Options{Strategy: f2db.Never{}},
		func() (*f2db.DB, error) { return loadEngine(t, data), nil })
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(dur.DB(), server.Options{})
	ln := listenOn(t, addr)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return &testShard{addr: ln.Addr().String(), db: dur.DB(), srv: srv, done: done}
}

// listenOn binds addr ("127.0.0.1:0" picks a port), retrying while a
// stopped listener still holds it.
func listenOn(t testing.TB, addr string) net.Listener {
	t.Helper()
	var ln net.Listener
	waitFor(t, "listen on "+addr, func() bool {
		var err error
		ln, err = net.Listen("tcp", addr)
		return err == nil
	})
	return ln
}

// twinExec runs one statement through the coordinator and the twin, which
// must agree on whether it is rejected and with what text.
func twinExec(t *testing.T, co *Coordinator, twin *f2db.DB, sql string) error {
	t.Helper()
	cerr, terr := co.Exec(sql), twin.Exec(sql)
	if fmt.Sprint(cerr) != fmt.Sprint(terr) {
		t.Fatalf("%s: coordinator says %v, twin says %v", sql, cerr, terr)
	}
	return cerr
}

// sameAsTwin asks the shard at addr directly for every node and requires
// the twin's answer, byte for byte.
func sameAsTwin(t *testing.T, what string, g *cube.Graph, addr string, twin *f2db.DB) {
	t.Helper()
	direct, err := fclient.Dial(addr, fclient.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	for id := 0; id < g.NumNodes(); id++ {
		q := querySQLFor(g, id)
		got, err := direct.QueryRaw(q)
		if err != nil {
			t.Fatalf("%s, node %d: %v", what, id, err)
		}
		want, err := twin.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wire.AppendResult(nil, want)) {
			t.Fatalf("%s: node %d answers differently from the twin", what, id)
		}
	}
}

// logRecorder collects the coordinator's diagnostics.
type logRecorder struct {
	t     *testing.T
	mu    sync.Mutex
	lines []string
}

func (l *logRecorder) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
	l.t.Logf(format, args...)
}

func (l *logRecorder) has(s string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if strings.Contains(line, s) {
			return true
		}
	}
	return false
}

// TestIdleRestartKeepsPendingRows: a durable shard that crashes while its
// worker is idle, holding rows of an incomplete time point, loses nothing —
// the pending rows live at the coordinator, and the shard's WAL holds every
// time point it acknowledged. Row sets are BaseIDs ordinals; ('P2','C3') is
// ordinal 6.
func TestIdleRestartKeepsPendingRows(t *testing.T) {
	g, data := buildCube(t)
	twin := loadEngine(t, data)
	a := startShardOn(t, data, "127.0.0.1:0")
	defer a.stop(t)
	fs := segment.NewMemFS()
	b := startDurableShard(t, fs, data, "127.0.0.1:0")
	co, err := New(f2db.NewPlanner(g, 0), []string{a.addr, b.addr}, testCoordOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	for i, ords := range [][]int{{4, 5, 6, 7}, {0, 1, 2}, {3, 4, 5}} {
		if err := twinExec(t, co, twin, rowsSQL(g, ords, 10*i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the first time point on both shards", co.CaughtUp)
	b.stop(t)
	fs.Crash()
	b = startDurableShard(t, fs, data, b.addr)
	defer b.stop(t)
	for _, sql := range []string{"INSERT INTO facts VALUES ('P2', 'C3', 1)", rowsSQL(g, []int{0, 1, 2, 3, 7}, 40)} {
		if err := twinExec(t, co, twin, sql); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "both shards caught up", co.CaughtUp)
	if got := b.db.Stats().Batches; got != 2 {
		t.Fatalf("restarted shard holds %d batches, want 2", got)
	}
	sameAsTwin(t, "shard A", g, a.addr, twin)
	sameAsTwin(t, "restarted shard B", g, b.addr, twin)
}

// TestRejectedInsertNotLogged: a statement repeating a pending row is
// rejected at the coordinator with the engine's text, makes no log entry
// and bumps no epoch, so a shard restarted from a snapshot afterwards
// resumes at its batch count and replays exactly the time points it lacks.
func TestRejectedInsertNotLogged(t *testing.T) {
	g, data := buildCube(t)
	twin := loadEngine(t, data)
	a := startShardOn(t, data, "127.0.0.1:0")
	defer a.stop(t)
	b := startShardOn(t, data, "127.0.0.1:0")
	co, err := New(f2db.NewPlanner(g, 0), []string{a.addr, b.addr}, testCoordOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	if err := twinExec(t, co, twin, rowsSQL(g, []int{0, 1, 2}, 1)); err != nil {
		t.Fatal(err)
	}
	bumps := co.Metrics().EpochGlobalBumps.Load()
	if err := twinExec(t, co, twin, rowsSQL(g, []int{2, 3}, 5)); err == nil {
		t.Fatal("a statement repeating a pending row was accepted")
	}
	co.mu.Lock()
	logged := co.logLen()
	co.mu.Unlock()
	if logged != 0 || co.Metrics().EpochGlobalBumps.Load() != bumps {
		t.Fatalf("the rejected statement left %d log entries and %d epoch bumps, want none",
			logged, co.Metrics().EpochGlobalBumps.Load()-bumps)
	}
	if err := twinExec(t, co, twin, rowsSQL(g, []int{3, 4, 5, 6, 7}, 10)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the first time point", co.CaughtUp)
	var snap bytes.Buffer
	if err := f2db.SaveDatabase(&snap, b.db); err != nil {
		t.Fatal(err)
	}
	b.stop(t)
	for i := 1; i < 3; i++ {
		if err := twinExec(t, co, twin, batchInsertSQL(100*i)); err != nil {
			t.Fatal(err)
		}
	}
	b = startShardOn(t, snap.Bytes(), b.addr)
	defer b.stop(t)
	waitFor(t, "the restarted shard to replay", co.CaughtUp)
	if co.Metrics().ShardsDead.Load() != 0 {
		t.Fatal("the restarted shard was fenced")
	}
	sameAsTwin(t, "shard A", g, a.addr, twin)
	sameAsTwin(t, "restarted shard B", g, b.addr, twin)
}

// TestFirstContactOutsideLog: a shard first contacted at a batch count the
// log does not reach — down when the coordinator started, or answering at
// New a count other than the log's start — is fenced with both counts in
// the reason, and the cluster keeps serving from the shards in the log.
func TestFirstContactOutsideLog(t *testing.T) {
	g, data := buildCube(t)
	twin := loadEngine(t, data)
	ahead := loadEngine(t, data)
	for i := 0; i < 3; i++ {
		if err := ahead.Exec(batchInsertSQL(1000 * i)); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := f2db.SaveDatabase(&snap, ahead); err != nil {
		t.Fatal(err)
	}

	a := startShardOn(t, data, "127.0.0.1:0")
	defer a.stop(t)
	ln := listenOn(t, "127.0.0.1:0")
	addrB := ln.Addr().String()
	_ = ln.Close()
	logs := &logRecorder{t: t}
	co, err := New(f2db.NewPlanner(g, 0), []string{a.addr, addrB}, Options{Logf: logs.logf})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if err := twinExec(t, co, twin, batchInsertSQL(10)); err != nil {
		t.Fatal(err)
	}
	b := startShardOn(t, snap.Bytes(), addrB)
	defer b.stop(t)
	waitFor(t, "the fence", func() bool { return co.Metrics().ShardsDead.Load() == 1 })
	if !logs.has("holds batch 3, beyond the log, which ends at batch 1; fenced") {
		t.Fatal("the fence does not name both counts")
	}
	if m := co.Metrics(); m.ShardsDown.Load() != 0 {
		t.Fatalf("the fenced shard is still counted down: %d", m.ShardsDown.Load())
	}
	if err := twinExec(t, co, twin, batchInsertSQL(20)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "shard A caught up", co.CaughtUp)
	sameAsTwin(t, "shard A", g, a.addr, twin)
	if got := b.db.Stats().Batches; got != 3 {
		t.Fatalf("the fenced shard was sent time points: it holds %d batches, want 3", got)
	}

	// At New: the first shard to answer fixes the log's start at batch 0,
	// so one that answers batch 3 is fenced at once.
	logs2 := &logRecorder{t: t}
	co2, err := New(f2db.NewPlanner(g, 0), []string{a.addr, b.addr}, Options{Logf: logs2.logf})
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	if co2.Metrics().ShardsDead.Load() != 1 || !logs2.has("holds batch 3, beyond the log, which ends at batch 2; fenced") {
		t.Fatal("a shard beyond the log's start was not fenced at New")
	}
}

// TestLostBatchesRefusedAndReplayed: a shard restarted from an older
// snapshot while the coordinator is idle holds fewer batches than it
// acknowledged. The next time point leaves a gap on it, which it refuses;
// the coordinator places it again by its batch count and replays what it
// lost — no time point is applied out of place.
func TestLostBatchesRefusedAndReplayed(t *testing.T) {
	g, data := buildCube(t)
	twin := loadEngine(t, data)
	a := startShardOn(t, data, "127.0.0.1:0")
	defer a.stop(t)
	b := startShardOn(t, data, "127.0.0.1:0")
	logs := &logRecorder{t: t}
	co, err := New(f2db.NewPlanner(g, 0), []string{a.addr, b.addr}, Options{Logf: logs.logf})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	if err := twinExec(t, co, twin, batchInsertSQL(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the first time point", co.CaughtUp)
	var old bytes.Buffer
	if err := f2db.SaveDatabase(&old, b.db); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		if err := twinExec(t, co, twin, batchInsertSQL(100*i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "three time points", co.CaughtUp)
	b.stop(t)
	b = startShardOn(t, old.Bytes(), b.addr)
	defer b.stop(t)
	if err := twinExec(t, co, twin, batchInsertSQL(300)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the replay", co.CaughtUp)
	if !logs.has("batch 4 leaves a gap: the engine holds 1") {
		t.Fatal("the shard did not refuse the gap")
	}
	if m := co.Metrics(); m.Shards[1].Replays.Load() != 1 || m.ShardsDead.Load() != 0 {
		t.Fatalf("replays %d, dead %d; want 1 and 0", m.Shards[1].Replays.Load(), m.ShardsDead.Load())
	}
	sameAsTwin(t, "shard A", g, a.addr, twin)
	sameAsTwin(t, "restarted shard B", g, b.addr, twin)
}
