package daemon

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cubefc/internal/coord"
	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/datasets"
	"cubefc/internal/f2db"
	"cubefc/internal/fclient"
	"cubefc/internal/segment"
	"cubefc/internal/server"
	"cubefc/internal/workload"
)

// TestCountBudgets is the count table: what one operation costs through the
// whole stack, in numbers that are exact and the same on any machine, each
// row held to a recorded budget. A client sends statements over loopback to
// a front server, whose coordinator sends each read, and each time point
// the inserts complete, on over loopback to two shard servers, each a
// durable engine on segment.MemFS under the daemon's
// TimeBased{8} re-fit rule. Run it with -v to see the table.
//
// The three hops run in three processes, each with one P from the start:
// this test is the client, and it starts itself twice more — once as the
// front server and coordinator, once as the two shards — and talks to them
// over their stdin and stdout. A process's count is its
// runtime.MemStats.Mallocs less what the counting itself allocated, so the
// tiers add up to the end-to-end column exactly. Within a process the
// servers and the coordinator are told apart by the stack of every
// allocation (runtime.MemProfileRate = 1), and the engine tier is the rest:
// the shard process's allocations outside its servers, and the
// coordinator's route plan, which is f2db code. (The profile counts a tiny
// block of small pointer-free objects once, so only tiers that allocate
// none are taken from it.) No row includes what MemFS allocates (it stands
// in for the disk) or what the runtime allocates on its own (no frame of
// this module on the stack: cleanups after a collection).
//
// A change that moves a row re-records its budget here and says why.
func TestCountBudgets(t *testing.T) {
	if role := os.Getenv(budgetChildEnv); role != "" {
		budgetChild(t, role)
		return
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// One P from the start: a pooled object put on a P that GOMAXPROCS
	// then takes away is allocated again.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	g := budgetCube(t)
	cfg, err := core.Run(g, core.Options{Seed: 1, FixedGamma: true, Gamma0: 0.5, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(t.TempDir(), "config")
	fh, err := os.Create(cfgPath)
	if err == nil {
		err = f2db.SaveConfiguration(fh, cfg)
	}
	if err == nil {
		err = fh.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	shards := startBudgetChild(t, "shards "+cfgPath)
	defer shards.stop(t)
	front := startBudgetChild(t, "front "+shards.hello)
	defer front.stop(t)
	cl, err := fclient.Dial(front.hello, fclient.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Every statement is rendered before anything is counted. The warm-up
	// asks every node once, and every level undivided and divided by a base
	// member, for more steps than any counted read, so that every
	// connection's frame buffer has grown to what the counted answers need.
	gen := workload.New(g, 1)
	rng := rand.New(rand.NewSource(1))
	warm := make([]string, g.NumNodes())
	for id := range warm {
		warm[id] = gen.QuerySQL(id, 7+id%6)
	}
	for d, dim := range g.Dims {
		for _, level := range dim.Levels {
			warm = append(warm, "SELECT time, SUM(m) FROM facts GROUP BY time, "+level+" AS OF now() + '5 steps'")
			for o, cell := range g.CoordOf(g.BaseIDs[0]) {
				if o != d {
					warm = append(warm, fmt.Sprintf("SELECT time, SUM(m) FROM facts WHERE %s = '%s' GROUP BY time, %s AS OF now() + '5 steps'",
						g.Dims[o].Levels[cell.Level], cell.Value, level))
				}
			}
		}
	}
	cold := make([]string, 512)
	for i, id := range rng.Perm(g.NumNodes())[:len(cold)] {
		cold[i] = gen.QuerySQL(id, 2+i%5)
	}
	drills := drillDowns(g, rng, 128)
	const hot = "SELECT time, SUM(m) FROM facts GROUP BY time AS OF now() + '3 steps'"
	const rowsPerInsert, warmPoints, points = 256, 8, 7
	var inserts [][]string // per time point
	for p := 0; p < warmPoints+points+1; p++ {
		var stmts []string
		for lo := 0; lo < len(g.BaseIDs); lo += rowsPerInsert {
			batch := make(map[int]float64, rowsPerInsert)
			for i, id := range g.BaseIDs[lo:min(lo+rowsPerInsert, len(g.BaseIDs))] {
				batch[id] = float64(100 + 3*p + i%17)
			}
			stmts = append(stmts, gen.InsertSQL(batch))
		}
		inserts = append(inserts, stmts)
	}

	query := func(sql string) {
		if _, err := cl.Query(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	applied := 0
	// insertPoint sends one time point and waits until both shards hold it.
	insertPoint := func(p int) {
		for _, sql := range inserts[p] {
			if err := cl.Exec(sql); err != nil {
				t.Fatal(err)
			}
		}
		applied++
		shards.wait(t, applied)
	}
	for _, sql := range warm {
		query(sql)
	}
	query(hot)

	warmSudogs()
	m := &meter{front: front, shards: shards}
	m.base = m.window(t, 0, func(int) {}).d
	var rows []budgetRow
	row := func(name string, n int, op func(i int)) budgetRow {
		r := m.window(t, n, op)
		r.name = name
		rows = append(rows, r)
		return r
	}
	coldRow := row("cold single-node read", len(cold), func(i int) { query(cold[i]) })
	drillRow := row("cold drill-down", len(drills), func(i int) { query(drills[i]) })
	hotRow := row("hot read", 1024, func(int) { query(hot) })
	// Eight time points, each settled — every invalid model re-fit, as a
	// query touching it or a trough would — so the eighth re-fits them all;
	// then seven that invalidate nothing.
	for p := 0; p < warmPoints; p++ {
		insertPoint(p)
		shards.counts(t, "settle")
	}
	insertRow := row(strconv.Itoa(rowsPerInsert)+"-row INSERT", points*len(inserts[0]), func(i int) {
		if i%len(inserts[0]) == 0 {
			insertPoint(warmPoints + i/len(inserts[0]))
		}
	})
	insertPoint(warmPoints + points) // the sixteenth: every model re-fits again
	end := shards.counts(t, "settle")

	perPoint := func(k string) float64 { return float64(insertRow.d[k]) / points }
	fsyncs, walPerRow := perPoint("shards.fsyncs"), perPoint("shards.walbytes")/float64(len(g.BaseIDs))
	fits := float64(end["fits"]) / float64(applied)
	var tab strings.Builder
	fmt.Fprintf(&tab, "%-24s %7s %7s %7s %7s %7s %7s %9s\n", "allocations per op", "client", "front", "coord", "shard", "engine", "total", "wire B")
	for _, r := range rows {
		fmt.Fprintf(&tab, "%-24s %7.2f %7.2f %7.2f %7.2f %7.2f %7.2f %9.1f\n",
			r.name, r.client, r.front, r.coordinator, r.shard, r.engine, r.total, r.wire)
	}
	fmt.Fprintf(&tab, "fsyncs_per_timepoint %.2f, wal_bytes_per_row %.2f, fits_per_timepoint %.3f (%d models), resident nodes per shard %d / %d of %d",
		fsyncs, walPerRow, fits, cfg.NumModels(), end["resident0"], end["resident1"], g.NumNodes())
	t.Logf("count table (%d-node cube, %d base series):\n%s", g.NumNodes(), len(g.BaseIDs), tab.String())

	over := func(what string, got, budget float64) {
		if got > budget {
			t.Errorf("%s: %.3f, budget %.3f", what, got, budget)
		}
	}
	// Budgets, recorded when this table was made; the drill-down's engine
	// tier was re-recorded (29.80 → 19.12) when the forecasts of all its
	// groups became one allocation in the engine's read table. The
	// coordinator keeps a cold read's entry and its copy of the shard's
	// answer; a hot read copies the cached answer into the front's buffer. An
	// INSERT is the front server's copy of the statement, then per time point
	// (two statements) the coordinator's one rendered log entry and one copy
	// in each shard server. Its row was coordinator 0.08, shard 2 and total
	// 3.08, wire 21660, while every statement went to the shards as sent; it
	// was ≤ 3.81 end to end as TestClusterInsertAllocs.
	for _, b := range []struct {
		r                                                      budgetRow
		client, front, coordinator, shard, engine, total, wire float64
	}{
		{coldRow, 4, 1, 2, 1, 7, 15, 500},
		{drillRow, 4.02, 1, 2.11, 1.18, 19.15, 27.45, 2774},
		{hotRow, 4, 1, 0, 0, 0, 5, 163},
		{insertRow, 0, 1, 0.58, 1, 0, 2.58, 21620},
	} {
		over(b.r.name+", client", b.r.client, b.client)
		over(b.r.name+", front server", b.r.front, b.front)
		over(b.r.name+", coordinator", b.r.coordinator, b.coordinator)
		over(b.r.name+", shard server", b.r.shard, b.shard)
		over(b.r.name+", engine", b.r.engine, b.engine)
		over(b.r.name+", end to end", b.r.total, b.total)
		over(b.r.name+", wire bytes", b.r.wire, b.wire)
		// The engine tier is what the processes' counts leave once the
		// profiled tiers are taken out: it cannot be negative.
		over(b.r.name+", profiled tiers beyond the processes' counts", -b.r.engine, 0.5)
	}
	// SyncAlways: one WAL fsync per time point and nothing else between
	// seals. A row is its 8-byte value plus its share of the record's
	// 9-byte frame and 8-byte generation: 8 + 17/512 = 8.033. It was 9.02
	// while a record carried a varint ID beside every value.
	over("fsyncs_per_timepoint", fsyncs, 1)
	over("wal_bytes_per_row", walPerRow, 8.04)
	// TimeBased{8}: every model re-fits once per eight time points.
	if want := float64(cfg.NumModels()) / 8; fits != want {
		t.Errorf("fits_per_timepoint %.3f, want %.3f", fits, want)
	}
	// A node is resident on the shard that answered for it.
	over("resident nodes, shard 0", float64(end["resident0"]), 513)
	over("resident nodes, shard 1", float64(end["resident1"]), 513)
}

// budgetChildEnv makes TestCountBudgets one of its own child processes:
// "shards <configuration file>" or "front <shard address>,<shard address>".
const budgetChildEnv = "CUBEFC_COUNT_BUDGETS"

// budgetCube is the count table's cube: 37 × 19 nodes over 512 base series,
// so a time point is two 256-row INSERTs.
func budgetCube(t testing.TB) *cube.Graph {
	t.Helper()
	g, err := datasets.GenCube(1, datasets.CubeGenOptions{DimCards: [][]int{{32, 4}, {16, 2}}}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// drillDowns renders n distinct drill-downs: GROUP BY time and one level of
// one dimension, the other dimension pinned to a drawn node's cell.
func drillDowns(g *cube.Graph, rng *rand.Rand, n int) []string {
	seen := make(map[string]bool, n)
	var out []string
	for len(out) < n {
		d := rng.Intn(len(g.Dims))
		sql, sep := "SELECT time, SUM(m) FROM facts", " WHERE "
		for o, cell := range g.CoordOf(rng.Intn(g.NumNodes())) {
			if dim := &g.Dims[o]; o != d && !cell.IsAll(dim) {
				sql += fmt.Sprintf("%s%s = '%s'", sep, dim.Levels[cell.Level], cell.Value)
				sep = " AND "
			}
		}
		sql += fmt.Sprintf(" GROUP BY time, %s AS OF now() + '%d steps'", g.Dims[d].Levels[rng.Intn(len(g.Dims[d].Levels))], 1+rng.Intn(4))
		if !seen[sql] {
			seen[sql] = true
			out = append(out, sql)
		}
	}
	return out
}

// warmSudogs grows the P's cache of sudogs, the runtime's records of a
// goroutine blocked on a channel, past what any window needs. The cache
// survives collections, but a window that first blocks more goroutines at
// once than any moment before it (the two shard servers' selects, say)
// allocates the difference, and the scheduler decides when that happens.
func warmSudogs() {
	var wg sync.WaitGroup
	a, b := make(chan struct{}), make(chan struct{})
	for i := 0; i < 48; i++ { // two sudogs each, within the cache's 128
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-a:
			case <-b:
			}
		}()
	}
	time.Sleep(10 * time.Millisecond) // every goroutine blocks in its select
	close(a)
	wg.Wait()
}

// measured counts what the counting itself allocated in this process.
var measured atomic.Uint64

// measuring runs f, which counts, and adds what it allocates to measured.
// f gets the process's count as it stood before: allocations less what
// counting allocated. Nothing but f may run meanwhile.
func measuring(f func(program uint64)) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f(a.Mallocs - measured.Load())
	runtime.ReadMemStats(&b)
	measured.Add(b.Mallocs - a.Mallocs)
}

// budgetRow is one operation's cost per op: allocations by tier and end to
// end, and bytes on the wire over both hops. d holds the window's raw
// counter deltas.
type budgetRow struct {
	name                                      string
	client, front, coordinator, shard, engine float64
	total, wire                               float64
	d                                         map[string]int64
}

// meter reads the counters of all three processes around a window of
// operations.
type meter struct {
	front, shards *budgetProc
	base          map[string]int64 // an empty window: what reading costs
}

func (m *meter) snap(t *testing.T) (out map[string]int64) {
	measuring(func(program uint64) {
		out = map[string]int64{"client": int64(program)}
		for prefix, p := range map[string]*budgetProc{"front.": m.front, "shards.": m.shards} {
			for k, v := range p.counts(t, "counts") {
				out[prefix+k] = v
			}
		}
	})
	return out
}

// window runs n operations between two snapshots and returns their cost
// per operation, less what an empty window costs. The collector is off in
// all three processes meanwhile: a collection empties the sync.Pools, and
// what refills them would count against whichever operation ran next.
func (m *meter) window(t *testing.T, n int, op func(i int)) budgetRow {
	m.collector(t, "off")
	defer m.collector(t, "on")
	a := m.snap(t)
	for i := 0; i < n; i++ {
		op(i)
	}
	b := m.snap(t)
	d := make(map[string]int64)
	for k, v := range b {
		d[k] = v - a[k] - m.base[k]
	}
	per := float64(max(n, 1))
	r := budgetRow{
		d:           d,
		client:      float64(d["client"]) / per,
		front:       float64(d["front.server"]) / per,
		coordinator: float64(d["front.coordinator"]) / per,
		shard:       float64(d["shards.server"]) / per,
		wire:        float64(d["front.wire"]+d["shards.wire"]) / per,
	}
	own := func(p string) int64 { return d[p+".program"] - d[p+".disk"] - d[p+".runtime"] }
	rest := own("shards") - d["shards.server"] + own("front") - d["front.server"] - d["front.coordinator"]
	r.engine = float64(rest) / per
	r.total = r.client + r.front + r.coordinator + r.shard + r.engine
	return r
}

// collector turns the garbage collector "off" or back "on" in this process
// and both children; what that allocates is counted as counting.
func (m *meter) collector(t *testing.T, state string) {
	measuring(func(uint64) {
		switchGC(state)
		m.front.ask(t, "gc "+state)
		m.shards.ask(t, "gc "+state)
	})
}

// gcPercent is the collector setting "gc off" replaced.
var gcPercent int

// switchGC turns the collector off, or restores the setting it had.
func switchGC(state string) {
	if state == "off" {
		gcPercent = debug.SetGCPercent(-1)
	} else {
		debug.SetGCPercent(gcPercent)
	}
}

// tierCounts publishes the allocation profile up to now (it takes two
// collections) and sums it by tier.
func tierCounts() map[string]int64 {
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	// What the runtime runs after a collection (its cleanups) runs now,
	// while this is still counting.
	time.Sleep(time.Millisecond)
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+1024)
	n, _ = runtime.MemProfile(recs, true)
	tiers := make(map[string]int64)
	for _, r := range recs[:n] {
		tiers[tierOf(r.Stack())] += r.AllocObjects
	}
	return tiers
}

// tierOf names the tier of one allocation stack: "disk" for MemFS,
// "runtime" when no frame is this module's, "server" or "coordinator" when
// the innermost frame of this module (passing over packages every tier
// calls) is in those packages, else "".
func tierOf(stk []uintptr) string {
	tier := "runtime"
	for frames := runtime.CallersFrames(stk); ; {
		f, more := frames.Next()
		if strings.HasPrefix(f.Function, "cubefc/internal/segment.(*mem") {
			return "disk"
		}
		if pkg, ok := strings.CutPrefix(f.Function, "cubefc/internal/"); ok && (tier == "runtime" || tier == "") {
			switch pkg, _, _ = strings.Cut(pkg, "."); pkg {
			case "wire", "lru", "metrics":
				tier = "" // every tier calls these: the caller's tier
			case "server":
				tier = "server"
			case "coord", "fclient":
				tier = "coordinator"
			default:
				tier = "rest"
			}
		}
		if !more {
			return strings.TrimPrefix(tier, "rest")
		}
	}
}

// budgetProc is a child process and the line protocol over its stdin and
// stdout: the parent writes a command, the child answers with one line.
type budgetProc struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Scanner
	hello string // the first line's argument: where the child serves
	errs  bytes.Buffer
}

func startBudgetChild(t *testing.T, role string) *budgetProc {
	t.Helper()
	p := &budgetProc{cmd: exec.Command(os.Args[0], "-test.run=^TestCountBudgets$", "-test.count=1")}
	p.cmd.Env = append(os.Environ(), budgetChildEnv+"="+role, "GOMAXPROCS=1")
	p.cmd.Stderr = &p.errs
	out, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if p.in, err = p.cmd.StdinPipe(); err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p.out = bufio.NewScanner(out)
	if p.hello = p.read(t, "hello"); p.hello == "" {
		t.Fatalf("%s: no address", role)
	}
	return p
}

// read returns the argument of the next line that starts with word.
func (p *budgetProc) read(t *testing.T, word string) string {
	for p.out.Scan() {
		if rest, ok := strings.CutPrefix(p.out.Text(), word+" "); ok {
			return rest
		}
	}
	t.Fatalf("child process ended before %q: %v\n%s", word, p.out.Err(), p.errs.String())
	return ""
}

// ask sends one command and returns the answer's argument.
func (p *budgetProc) ask(t *testing.T, cmd string) string {
	if _, err := io.WriteString(p.in, cmd+"\n"); err != nil {
		t.Fatal(err)
	}
	return p.read(t, "ok")
}

// wait returns once both shards hold n time points.
func (p *budgetProc) wait(t *testing.T, n int) {
	measuring(func(uint64) { p.ask(t, "wait "+strconv.Itoa(n)) })
}

// counts sends cmd and parses its answer, name=value pairs.
func (p *budgetProc) counts(t *testing.T, cmd string) map[string]int64 {
	out := make(map[string]int64)
	for _, f := range strings.Fields(p.ask(t, cmd)) {
		k, v, _ := strings.Cut(f, "=")
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("%s: %q: %v", cmd, f, err)
		}
		out[k] = n
	}
	return out
}

// stop closes the child's stdin, its signal to shut down, and waits for it.
func (p *budgetProc) stop(t *testing.T) {
	p.in.Close()
	if err := p.cmd.Wait(); err != nil {
		t.Errorf("child process: %v\n%s", err, p.errs.String())
	}
}

// budgetChild is a child process: it serves its hop, says hello with its
// address, and answers commands until stdin closes.
func budgetChild(t *testing.T, role string) {
	runtime.MemProfileRate = 1
	kind, arg, _ := strings.Cut(role, " ")
	g := budgetCube(t)
	// prime is a 256-row INSERT whose last row repeats its first: it is
	// resolved in full and rejected, which refills the pooled insert
	// scratch that the collections of a count emptied, and changes nothing.
	gen, batch := workload.New(g, 0), make(map[int]float64)
	for _, id := range g.BaseIDs[:256] {
		batch[id] = 1
	}
	prime := gen.InsertSQL(batch)
	prime += ", " + prime[strings.Index(prime, "("):strings.Index(prime, ")")+1]
	var wire atomic.Int64
	var srvs []*server.Server
	var ctl budgetCtl
	switch kind {
	case "shards":
		img, err := os.ReadFile(arg)
		if err != nil {
			t.Fatal(err)
		}
		var shards []*budgetShard
		for i := 0; i < 2; i++ {
			s := openBudgetShard(t, img)
			defer s.close(t)
			shards = append(shards, s)
			srvs = append(srvs, server.New(s.dur.DB(), server.Options{}))
		}
		ctl = shardCtl{shards, prime}
	case "front":
		co, err := coord.New(f2db.NewPlanner(g, 0), strings.Split(arg, ","), coord.Options{CacheSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		defer co.Close()
		srvs = append(srvs, server.NewBackend(co, server.Options{}))
		ctl = frontCtl{co, prime}
	default:
		t.Fatalf("unknown role %q", role)
	}
	var hello []string
	for _, srv := range srvs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(countingListener{ln, &wire}) }()
		defer shutdownServer(t, srv, done)
		hello = append(hello, ln.Addr().String())
	}
	warmSudogs()
	fmt.Printf("hello %s\n", strings.Join(hello, ","))
	budgetCommands(&wire, ctl)
}

// budgetCtl is what a child process does beyond counting: wait, run its
// own commands, add its own counters to a count, and prime its pools.
type budgetCtl interface {
	wait(n int)
	command(cmd string)
	counters() string
	prime()
}

var okLine = []byte("ok \n")

// budgetCommands answers commands on stdin until it closes. "wait N"
// answers "ok" once both shards hold N time points; the shards apply them
// meanwhile, so the wait allocates nothing and is not counted. Any other
// command ("counts", "settle", "gc off", "gc on") runs and answers "ok"
// and the process's counters, all of it counted as counting.
func budgetCommands(wire *atomic.Int64, ctl budgetCtl) {
	time.Sleep(time.Microsecond) // a goroutine's first sleep allocates its timer
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		if n, ok := bytes.CutPrefix(in.Bytes(), []byte("wait ")); ok {
			want := 0
			for _, c := range n {
				want = 10*want + int(c-'0')
			}
			ctl.wait(want)
			_, _ = os.Stdout.Write(okLine)
			continue
		}
		measuring(func(program uint64) {
			if state, ok := strings.CutPrefix(in.Text(), "gc "); ok {
				switchGC(state)
			} else {
				ctl.command(in.Text())
			}
			line := fmt.Sprintf("ok program=%d wire=%d", program, wire.Load())
			for k, v := range tierCounts() {
				if k != "" {
					line += fmt.Sprintf(" %s=%d", k, v)
				}
			}
			fmt.Println(line + ctl.counters())
			ctl.prime()
		})
	}
}

// frontCtl is the front process's: its coordinator refills the insert
// scratch when it resolves prime.
type frontCtl struct {
	co  *coord.Coordinator
	sql string
}

func (frontCtl) wait(int)         {}
func (frontCtl) command(string)   {}
func (frontCtl) counters() string { return "" }
func (c frontCtl) prime()         { _ = c.co.Exec(c.sql) }

// shardCtl is the shard process's: "settle" re-fits every invalid model.
// Its counters are shard 0's fsyncs, WAL bytes and re-fits, and both
// shards' resident nodes.
type shardCtl struct {
	shards []*budgetShard
	sql    string
}

func (c shardCtl) wait(n int) {
	for _, s := range c.shards {
		for s.dur.DB().Stats().Batches < n {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

func (c shardCtl) command(cmd string) {
	if cmd == "settle" {
		for _, s := range c.shards {
			if s.dur.DB().InvalidCount() > 0 {
				s.dur.DB().ReestimateInvalid()
			}
		}
	}
}

func (c shardCtl) counters() string {
	s := c.shards[0]
	return fmt.Sprintf(" fsyncs=%d walbytes=%d fits=%d resident0=%d resident1=%d",
		s.fs.syncs.Load(), s.fs.walBytes.Load(), s.dur.DB().Stats().Reestimations,
		c.shards[0].graph.MaterializedNodes(), c.shards[1].graph.MaterializedNodes())
}

func (c shardCtl) prime() {
	for _, s := range c.shards {
		_ = s.dur.DB().Exec(c.sql)
	}
}

// budgetShard is one durable shard engine on an in-memory filesystem.
type budgetShard struct {
	graph *cube.Graph
	fs    *countingFS
	dur   *f2db.Durable
}

func openBudgetShard(t *testing.T, cfgImage []byte) *budgetShard {
	t.Helper()
	s := &budgetShard{graph: budgetCube(t), fs: &countingFS{FS: segment.NewMemFS()}}
	opts := f2db.Options{Strategy: f2db.TimeBased{Every: 8}}
	var err error
	s.dur, err = f2db.OpenDurable(f2db.DurableOptions{Dir: "shard", FS: s.fs, Sync: segment.SyncAlways, CompactEvery: 256}, opts,
		func() (*f2db.DB, error) {
			cfg, err := f2db.LoadConfiguration(bytes.NewReader(cfgImage), s.graph)
			if err != nil {
				return nil, err
			}
			return f2db.Open(s.graph, cfg, opts)
		})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func (s *budgetShard) close(t *testing.T) {
	if err := s.dur.Close(); err != nil {
		t.Error(err)
	}
}

func shutdownServer(t testing.TB, srv *server.Server, done chan error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Error(err)
	}
	<-done
}

// countingFS counts the fsyncs (file and directory) and the bytes written
// to WAL files through it.
type countingFS struct {
	segment.FS
	syncs, walBytes atomic.Int64
}

func (f *countingFS) Create(name string) (segment.File, error) {
	fl, err := f.FS.Create(name)
	return f.count(name, fl, err)
}

func (f *countingFS) Append(name string) (segment.File, error) {
	fl, err := f.FS.Append(name)
	return f.count(name, fl, err)
}

func (f *countingFS) SyncDir(dir string) error {
	f.syncs.Add(1)
	return f.FS.SyncDir(dir)
}

func (f *countingFS) count(name string, fl segment.File, err error) (segment.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{File: fl, fs: f, wal: strings.HasPrefix(path.Base(name), "wal-")}, nil
}

type countingFile struct {
	segment.File
	fs  *countingFS
	wal bool
}

func (c *countingFile) Write(p []byte) (int, error) {
	n, err := c.File.Write(p)
	if c.wal {
		c.fs.walBytes.Add(int64(n))
	}
	return n, err
}

func (c *countingFile) Sync() error {
	c.fs.syncs.Add(1)
	return c.File.Sync()
}

// countingListener counts every byte its connections read and write.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}
