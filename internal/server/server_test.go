package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cubefc/internal/cube"
	"cubefc/internal/f2db"
	"cubefc/internal/fclient"
	"cubefc/internal/metrics"
	"cubefc/internal/timeseries"
	"cubefc/internal/wire"
	"cubefc/internal/workload"
)

// twinEngines builds a small 2-dimensional cube, loads its pinned
// configuration, and clones the engine through a snapshot into two
// independent instances: one served over the wire to concurrent writers and
// one sequential reference. The model configuration is frozen (Strategy
// Never) so forecasts are a pure function of the series state both engines
// should agree on.
func twinEngines(t testing.TB) (served, twin *f2db.DB, g *cube.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	loc, err := cube.NewHierarchy("location", []string{"city", "region"},
		[]map[string]string{{"C1": "R1", "C2": "R1", "C3": "R2", "C4": "R2"}})
	if err != nil {
		t.Fatal(err)
	}
	dims := []cube.Dimension{cube.NewDimension("product", "product"), loc}
	var base []cube.BaseSeries
	for _, p := range []string{"P1", "P2"} {
		for _, c := range []string{"C1", "C2", "C3", "C4"} {
			vals := make([]float64, 36)
			level := 30 + 20*rng.Float64()
			for i := range vals {
				season := 1 + 0.25*math.Sin(2*math.Pi*float64(i%4)/4)
				vals[i] = level * season * (1 + 0.05*rng.NormFloat64())
			}
			base = append(base, cube.BaseSeries{Members: []string{p, c}, Series: timeseries.New(vals, 4)})
		}
	}
	g, err = cube.NewGraph(dims, base)
	if err != nil {
		t.Fatal(err)
	}
	// The configuration f2db's tests pin for this same cube (f2db's
	// TestPinnedConfigurations), so every run serves the same engine.
	pinned, err := os.ReadFile("../f2db/testdata/testengine-36.cfg")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := f2db.LoadConfiguration(bytes.NewReader(pinned), g)
	if err != nil {
		t.Fatal(err)
	}
	src, err := f2db.Open(g, cfg, f2db.Options{Strategy: f2db.Never{}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f2db.SaveDatabase(&buf, src); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	served, err = f2db.LoadDatabase(bytes.NewReader(data), f2db.Options{Strategy: f2db.Never{}})
	if err != nil {
		t.Fatal(err)
	}
	twin, err = f2db.LoadDatabase(bytes.NewReader(data), f2db.Options{Strategy: f2db.Never{}})
	if err != nil {
		t.Fatal(err)
	}
	return served, twin, g
}

// startServer serves db on a loopback listener and returns the server, its
// address, and a cleanup-checked Serve exit channel.
func startServer(t testing.TB, db *f2db.DB, opts Options) (*Server, string, chan error) {
	t.Helper()
	srv := New(db, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return srv, ln.Addr().String(), done
}

// shutdownClean drains the server and asserts both Shutdown and Serve
// report a clean close.
func shutdownClean(t *testing.T, srv *Server, done chan error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrServerClosed) {
			t.Fatalf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
}

// TestServerBasic round-trips each request type once.
func TestServerBasic(t *testing.T) {
	db, _, g := twinEngines(t)
	srv, addr, done := startServer(t, db, Options{})
	defer shutdownClean(t, srv, done)

	cl, err := fclient.Dial(addr, fclient.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	text, err := cl.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	// The engine's lines, then the server's own, counting this request.
	for _, want := range []string{"f2db_pending_inserts=0 f2db_invalid_models=0\n", "f2dbd_connections_accepted_total=1 ", `f2dbd_requests_total{type="stats"}=1 `} {
		if !strings.Contains(text, want) {
			t.Fatalf("Stats text lacks %q:\n%s", want, text)
		}
	}

	gen := workload.New(g, 1)
	res, err := cl.Query(gen.QuerySQL(g.TopID, 2))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !res.Forecast || len(res.Rows) == 0 {
		t.Fatalf("forecast query returned %+v", res)
	}

	if err := cl.Exec("INSERT INTO facts VALUES ('P1', 'C1', 42.5)"); err != nil {
		t.Fatalf("Exec: %v", err)
	}

	// A broken statement surfaces as a typed server error, not a transport
	// failure, and must not kill the connection. The last two once killed
	// the process: a NaN confidence level and an unbounded horizon.
	for _, q := range []string{
		"SELECT nonsense",
		"SELECT time, SUM(m) FROM facts AS OF now() + '2 steps' WITH INTERVAL NaN",
		"SELECT time, SUM(m) FROM facts AS OF now() + '9223372036854775807 steps'",
	} {
		_, err = cl.Query(q)
		var se *wire.ServerError
		if !errors.As(err, &se) || se.Code != wire.CodeQuery {
			t.Fatalf("%s: returned %v, want CodeQuery ServerError", q, err)
		}
		if err := cl.Ping(); err != nil {
			t.Fatalf("Ping after server error: %v", err)
		}
	}
}

// TestShutdownBoundsChattyClient: a client that keeps sending while the
// server drains cannot hold the drain open — each connection's read window
// is fixed when it sees the drain, not renewed per frame.
func TestShutdownBoundsChattyClient(t *testing.T) {
	db, _, _ := twinEngines(t)
	srv, addr, done := startServer(t, db, Options{})
	cl, err := fclient.Dial(addr, fclient.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				_ = cl.Ping()
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	shutdownClean(t, srv, done)
	if d := time.Since(start); d > 8*drainGrace {
		t.Fatalf("Shutdown took %v against a client that kept sending", d)
	}
}

// TestServerApply: a time point is applied once, by its batch number — the
// next batch applies, a held one is acked without effect, a gap and a
// statement that does not complete its batch are refused — and the engine
// ends where a twin fed each time point once stands.
func TestServerApply(t *testing.T) {
	db, twin, g := twinEngines(t)
	srv, addr, done := startServer(t, db, Options{})
	defer shutdownClean(t, srv, done)
	cl, err := fclient.Dial(addr, fclient.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	p := f2db.NewPlanner(g, 0)
	point := func(v float64) string {
		column := make([]float64, len(g.BaseIDs))
		for i := range column {
			column[i] = v + float64(i)
		}
		return string(p.AppendTimePoint(nil, column))
	}
	refused := func(what string, err error, text string) {
		t.Helper()
		var se *wire.ServerError
		if !errors.As(err, &se) || se.Code != wire.CodeQuery || !strings.Contains(se.Message, text) {
			t.Fatalf("%s: %v, want a CodeQuery refusal containing %q", what, err, text)
		}
	}
	for _, step := range []struct {
		batch uint64
		sql   string
		apply bool
	}{{1, point(10), true}, {1, point(10), false}, {2, point(20), true}, {1, point(99), false}} {
		if err := cl.Apply(step.batch, step.sql); err != nil {
			t.Fatalf("apply batch %d: %v", step.batch, err)
		}
		if step.apply {
			if err := twin.Exec(step.sql); err != nil {
				t.Fatal(err)
			}
		}
	}
	refused("a gap", cl.Apply(4, point(40)), "batch 4 leaves a gap: the engine holds 2")
	last := g.BaseIDs[len(g.BaseIDs)-1]
	partial := string(f2db.AppendInsert(nil, g, []int{last}, []float64{1}))
	refused("a partial time point", cl.Apply(3, partial), "batch 3 applied, but the engine holds 2")
	// That row stays pending. The next time point would complete the column
	// with it in place of the time point's own value for the last base, so
	// it is refused, and nothing changes.
	refused("a time point over pending rows", cl.Apply(3, point(30)), "batch 3 refused: the engine holds 1 pending rows of its own")
	if st := db.Stats(); st.Batches != 2 || st.PendingInserts != 1 {
		t.Fatalf("after the refused time point: %d batches, %d pending; want 2 and 1", st.Batches, st.PendingInserts)
	}
	if info, err := cl.Info(); err != nil || info.Batches != 2 {
		t.Fatalf("Info = %+v, %v; want 2 batches", info, err)
	}
	for id := 0; id < g.NumNodes(); id++ {
		q := workload.New(g, 1).QuerySQL(id, 2)
		got, err := cl.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire.AppendResult(nil, got), wire.AppendResult(nil, want)) {
			t.Fatalf("node %d differs from the twin", id)
		}
	}
}

// TestServerStressTwinEquality is the acceptance stress: 64 concurrent
// fclient connections (8 writers splitting every insert batch, 56 readers
// free-running forecast queries) against the wire server, cross-checked
// against a sequential twin engine fed the same batches. Run with -race.
func TestServerStressTwinEquality(t *testing.T) {
	const (
		writerClients         = 8
		readerClients         = 56
		rounds                = 5
		queriesPerReaderRound = 3
	)
	served, twin, g := twinEngines(t)
	srv, addr, done := startServer(t, served, Options{})
	defer shutdownClean(t, srv, done)

	dial := func() *fclient.Client {
		cl, err := fclient.Dial(addr, fclient.Options{PoolSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	writers := make([]*fclient.Client, writerClients)
	for i := range writers {
		writers[i] = dial()
	}
	readers := make([]*fclient.Client, readerClients)
	for i := range readers {
		readers[i] = dial()
	}

	gen := workload.New(g, 7)
	qgen := workload.New(g, 11)
	numNodes := g.NumNodes()
	numBase := len(g.BaseIDs)

	for round := 0; round < rounds; round++ {
		batch := gen.NextBatch()
		parts := workload.SplitBatch(batch, writerClients)
		// Pre-render the round's SQL: the generator's rng is not safe for
		// concurrent use, and fixed statements keep the run reproducible.
		insertSQL := make([]string, len(parts))
		for i, part := range parts {
			insertSQL[i] = gen.InsertSQL(part)
		}
		readSQL := make([][]string, readerClients)
		for r := range readSQL {
			for j := 0; j < queriesPerReaderRound; j++ {
				readSQL[r] = append(readSQL[r], qgen.QuerySQL(qgen.RandomNode(), 1+j%3))
			}
		}

		errs := make([]error, writerClients+readerClients)
		var wg sync.WaitGroup
		for i := range insertSQL {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = writers[i].Exec(insertSQL[i])
			}(i)
		}
		for r := 0; r < readerClients; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for _, sql := range readSQL[r] {
					if _, err := readers[r].Query(sql); err != nil {
						errs[writerClients+r] = err
						return
					}
				}
			}(r)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}

		// Sequential reference: the same values as one local statement.
		if err := twin.Exec(gen.InsertSQL(batch)); err != nil {
			t.Fatalf("round %d: twin: %v", round, err)
		}
	}

	// Zero lost inserts: both engines absorbed every value and completed
	// every batch advance.
	ss, ts := served.Stats(), twin.Stats()
	if ss.Inserts != ts.Inserts || ss.Batches != ts.Batches || ss.PendingInserts != ts.PendingInserts {
		t.Fatalf("stats diverged:\nserved: %+v\ntwin:   %+v", ss, ts)
	}
	if ss.Inserts != rounds*numBase {
		t.Fatalf("served %d inserts, want %d", ss.Inserts, rounds*numBase)
	}

	// Byte-identical results, node by node: the full history (detects any
	// lost or misrouted value) and a 2-step forecast (detects model-state
	// divergence), both through the wire codec.
	cl0 := readers[0]
	for id := 0; id < numNodes; id++ {
		fsql := gen.QuerySQL(id, 2)
		hsql := fsql[:strings.Index(fsql, " AS OF")]
		for _, sql := range []string{hsql, fsql} {
			remote, err := cl0.Query(sql)
			if err != nil {
				t.Fatalf("node %d: remote %q: %v", id, sql, err)
			}
			local, err := twin.Query(sql)
			if err != nil {
				t.Fatalf("node %d: twin %q: %v", id, sql, err)
			}
			if len(remote.Rows) != len(local.Rows) {
				t.Fatalf("node %d: %q: %d rows != %d", id, sql, len(remote.Rows), len(local.Rows))
			}
			for i := range remote.Rows {
				a, b := remote.Rows[i], local.Rows[i]
				if a.T != b.T ||
					math.Float64bits(a.Value) != math.Float64bits(b.Value) ||
					math.Float64bits(a.Lo) != math.Float64bits(b.Lo) ||
					math.Float64bits(a.Hi) != math.Float64bits(b.Hi) {
					t.Fatalf("node %d: %q row %d: %+v != %+v (not byte-identical)", id, sql, i, a, b)
				}
			}
		}
	}

	if got := srv.Metrics().ConnsAccepted.Load(); got < writerClients+readerClients {
		t.Errorf("ConnsAccepted = %d, want >= %d", got, writerClients+readerClients)
	}
	if got := srv.Metrics().Queries.Load(); got == 0 {
		t.Error("Queries counter never moved")
	}
}

// TestServerShutdownDrainsInFlight holds one request in-flight across a
// Shutdown and asserts the drain protocol answers it: Shutdown returns nil
// (clean drain), the client gets its response, and connections accepted
// after the drain began are refused with CodeShutdown.
func TestServerShutdownDrainsInFlight(t *testing.T) {
	db, _, g := twinEngines(t)
	srv := New(db, Options{})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.testHookBeforeHandle = func(tt wire.Type) {
		if tt == wire.TQuery {
			once.Do(func() {
				close(entered)
				<-release
			})
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	clq, err := fclient.Dial(addr, fclient.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer clq.Close()

	gen := workload.New(g, 1)
	type qres struct {
		res *f2db.Result
		err error
	}
	resc := make(chan qres, 1)
	go func() {
		r, err := clq.Query(gen.QuerySQL(g.TopID, 1))
		resc <- qres{r, err}
	}()
	<-entered

	// Shutdown with the request still blocked in the hook: the drain must
	// wait for it.
	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shut <- srv.Shutdown(ctx)
	}()
	// Give the drain a moment to begin, then verify the request has not
	// been abandoned and new connections are refused.
	time.Sleep(50 * time.Millisecond)
	select {
	case r := <-resc:
		t.Fatalf("in-flight query resolved before release: %+v", r)
	default:
	}
	if _, err := fclient.Dial(addr, fclient.Options{PoolSize: 1}); err == nil {
		t.Fatal("dial during drain succeeded, want refusal")
	}

	close(release)
	r := <-resc
	if r.err != nil {
		t.Fatalf("in-flight query failed across drain: %v", r.err)
	}
	if len(r.res.Rows) == 0 {
		t.Fatal("in-flight query returned no rows")
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-done; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}

// TestServerRequestTimeout verifies the watchdog: a request stalled past
// RequestTimeout yields an in-order CodeTimeout error, and the connection
// keeps serving afterwards.
func TestServerRequestTimeout(t *testing.T) {
	db, _, g := twinEngines(t)
	srv := New(db, Options{RequestTimeout: 50 * time.Millisecond})
	var stalled atomic.Bool
	srv.testHookInProcess = func(tt wire.Type) {
		if tt == wire.TQuery && stalled.CompareAndSwap(false, true) {
			time.Sleep(250 * time.Millisecond)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer shutdownClean(t, srv, done)

	cl, err := fclient.Dial(ln.Addr().String(), fclient.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	gen := workload.New(g, 1)
	_, qerr := cl.Query(gen.QuerySQL(g.TopID, 1))
	var se *wire.ServerError
	if !errors.As(qerr, &se) || se.Code != wire.CodeTimeout {
		t.Fatalf("stalled query returned %v, want CodeTimeout ServerError", qerr)
	}
	if got := srv.Metrics().Timeouts.Load(); got != 1 {
		t.Fatalf("Timeouts = %d, want 1", got)
	}
	// The timeout answered in-order without poisoning the stream: the same
	// connection serves the next requests, correctly, while the straggler
	// is still running on the worker the connection abandoned and after it
	// finishes — under -race this is what shows that the straggler shares
	// no buffer with the connection's new worker.
	want, err := db.Query(gen.QuerySQL(g.TopID, 1))
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(400 * time.Millisecond); time.Now().Before(deadline); {
		got, err := cl.Query(gen.QuerySQL(g.TopID, 1))
		if err != nil {
			t.Fatalf("query after timeout: %v", err)
		}
		if !bytes.Equal(wire.AppendResult(nil, got), wire.AppendResult(nil, want)) {
			t.Fatalf("answer after timeout differs:\n got %+v\nwant %+v", got, want)
		}
		if err := cl.Ping(); err != nil {
			t.Fatalf("ping after timeout: %v", err)
		}
	}
	if got := srv.Metrics().ConnsAccepted.Load(); got != 1 {
		t.Fatalf("ConnsAccepted = %d, want 1: the timeout cost the connection", got)
	}
	if got := srv.Metrics().Timeouts.Load(); got != 1 {
		t.Fatalf("Timeouts = %d after the follow-up requests, want 1 (stale timer tick?)", got)
	}
}

// TestClientRetryOnReconnect kills the server between two idempotent
// requests: the pooled connection dies, and the retry redials transparently.
// A non-idempotent Exec is retried only on provably-unsent failures (a dead
// connection detected before writing, a failed redial); with nothing
// listening every attempt fails that way, so the Exec below still surfaces
// a transport error rather than waiting for a server that is not there.
func TestClientRetryOnReconnect(t *testing.T) {
	db, _, g := twinEngines(t)
	srv1, addr, done1 := startServer(t, db, Options{})

	// Pin the listen address so the second server can reuse it.
	cl, err := fclient.Dial(addr, fclient.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	gen := workload.New(g, 1)
	if _, err := cl.Query(gen.QuerySQL(g.TopID, 1)); err != nil {
		t.Fatal(err)
	}

	shutdownClean(t, srv1, done1)

	// Exec on the now-dead connection: its failures (dead-conn check,
	// failed redial) are zero-bytes-sent and thus retryable, but the new
	// server only starts below — every attempt fails, and the error
	// surfaces as transport-level.
	execErr := cl.Exec("INSERT INTO facts VALUES ('P1', 'C1', 1.0)")
	if execErr == nil {
		t.Fatal("Exec over dead connection succeeded, want transport error")
	}
	if !fclient.IsRetryable(execErr) {
		t.Fatalf("Exec failure %v should be transport-level (retryable by caller policy)", execErr)
	}

	srv2 := New(db, Options{})
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	done2 := make(chan error, 1)
	go func() { done2 <- srv2.Serve(ln2) }()
	defer shutdownClean(t, srv2, done2)

	// Idempotent query: first attempt hits the dead pooled conn, the retry
	// redials against the new server.
	if _, err := cl.Query(gen.QuerySQL(g.TopID, 1)); err != nil {
		t.Fatalf("query after reconnect: %v", err)
	}
}

// TestServerMaxConns verifies the accept gate: with MaxConns=1 a second
// connection waits in the backlog until the first closes, rather than
// being served concurrently.
func TestServerMaxConns(t *testing.T) {
	db, _, _ := twinEngines(t)
	srv, addr, done := startServer(t, db, Options{MaxConns: 1})
	defer shutdownClean(t, srv, done)

	c1, err := fclient.Dial(addr, fclient.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A second client's dial succeeds at TCP level (backlog) but its ping
	// cannot be served until the first connection is released.
	pinged := make(chan error, 1)
	go func() {
		c2, err := fclient.Dial(addr, fclient.Options{PoolSize: 1})
		if err == nil {
			defer c2.Close()
		}
		pinged <- err
	}()
	select {
	case err := <-pinged:
		t.Fatalf("second connection served while gate full (err=%v)", err)
	case <-time.After(200 * time.Millisecond):
	}
	c1.Close()
	select {
	case err := <-pinged:
		if err != nil {
			t.Fatalf("second connection after release: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second connection never served after gate release")
	}
	if got := srv.Metrics().ConnsAccepted.Load(); got < 2 {
		t.Fatalf("ConnsAccepted = %d, want >= 2", got)
	}
}

// stubBackend answers from a fixed table without allocating, so that what a
// round trip allocates is the front hop's own doing. A statement not in the
// table is answered with a one-group result echoing it as the plan.
type stubBackend struct {
	results map[string]*f2db.Result
}

func (b stubBackend) Query(sql string) (*f2db.Result, error) {
	if res, ok := b.results[sql]; ok {
		return res, nil
	}
	return shaped(1, 1, sql), nil
}
func (b stubBackend) Exec(string) error        { return nil }
func (b stubBackend) StatsText() string        { return "stub\n" }
func (b stubBackend) Counts() (uint64, uint64) { return 0, 0 }

// TestStatsCarriesServerRegistry: a TStats answer is the backend's text,
// then the server's registry.
func TestStatsCarriesServerRegistry(t *testing.T) {
	srv := NewBackend(stubBackend{}, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer shutdownClean(t, srv, done)
	cl, err := fclient.Dial(ln.Addr().String(), fclient.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	text, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(text, "stub\nf2dbd_connections_accepted_total=1 ") {
		t.Fatalf("Stats text = %q", text)
	}
}

// TestRegistryComplete gives every exported atomic.Int64 and
// metrics.Histogram field of Metrics a value of its own and requires each
// on /metrics and on \stats: a field added without a registration line
// fails here.
func TestRegistryComplete(t *testing.T) {
	var m Metrics
	want := map[string]string{}
	v := reflect.ValueOf(&m).Elem()
	for i := 0; i < v.NumField(); i++ {
		val := int64(1001 + i)
		switch f := v.Field(i).Addr().Interface().(type) {
		case *atomic.Int64:
			f.Store(val)
		case *metrics.Histogram:
			for j := int64(0); j < val; j++ {
				f.Observe(1)
			}
		default:
			t.Fatalf("field %s has type %T: teach this test how to fill it", v.Type().Field(i).Name, f)
		}
		want[v.Type().Field(i).Name] = fmt.Sprint(val)
	}
	var page, stats bytes.Buffer
	if err := m.Registry().WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	if err := m.Registry().WriteStats(&stats); err != nil {
		t.Fatal(err)
	}
	for name, val := range want {
		if !strings.Contains(page.String(), " "+val+"\n") {
			t.Errorf("Metrics.%s (= %s) is not on /metrics", name, val)
		}
		if !strings.Contains(stats.String(), "="+val) {
			t.Errorf("Metrics.%s (= %s) is not on \\stats: %s", name, val, stats.String())
		}
	}
}

// shapedKey is the statement stubWith answers with a groups-group result.
func shapedKey(groups int) string { return "SELECT " + strings.Repeat("g", groups) }

// stubWith returns a stub that answers shapedKey(n) with n groups of 3 rows.
func stubWith(groups ...int) stubBackend {
	b := stubBackend{results: make(map[string]*f2db.Result)}
	for _, n := range groups {
		b.results[shapedKey(n)] = shaped(n, 3, "aggregation from [a, b] weight 1.000000")
	}
	return b
}

// shaped builds an answer of the given group and row counts.
func shaped(groups, rows int, plan string) *f2db.Result {
	res := &f2db.Result{Forecast: true, Plan: plan}
	for i := 0; i < groups; i++ {
		grp := f2db.Group{Node: 100 + i, NodeKey: "d0l1_" + strings.Repeat("x", i%7) + "|*", Member: "d0l1_" + strings.Repeat("x", i%7)}
		grp.Rows = make([]f2db.QueryRow, rows)
		for j := range grp.Rows {
			v := float64(i*rows + j)
			grp.Rows[j] = f2db.QueryRow{T: 36 + j, Value: v, Lo: v - 1, Hi: v + 1}
		}
		res.Groups = append(res.Groups, grp)
	}
	res.Node, res.NodeKey, res.Rows = res.Groups[0].Node, res.Groups[0].NodeKey, res.Groups[0].Rows
	return res
}

// TestCleanEOFNotLogged: a client that hangs up between frames ends its
// connection without a log line; one that hangs up inside a frame is
// logged as a read error, as is any broken frame.
func TestCleanEOFNotLogged(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	srv := NewBackend(stubBackend{}, Options{Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	var frame bytes.Buffer
	bw := bufio.NewWriter(&frame)
	if err := wire.WriteFrame(bw, wire.TPing, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	// Each client pings, reads the answer, sends its tail and hangs up:
	// nothing, then a ping cut inside its frame header. The answered ping
	// shows the server took the connection before it shuts down.
	for _, tail := range [][]byte{nil, frame.Bytes()[:3]} {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(frame.Bytes()); err != nil {
			t.Fatal(err)
		}
		if _, _, err := wire.NewReader(nc).ReadFrame(nil); err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(tail); err != nil {
			t.Fatal(err)
		}
		if err := nc.Close(); err != nil {
			t.Fatal(err)
		}
	}
	shutdownClean(t, srv, done)
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 || !strings.Contains(lines[0], "read: "+io.ErrUnexpectedEOF.Error()) {
		t.Fatalf("log lines %q, want one read error for the cut frame", lines)
	}
}

// startStub serves a stub backend on loopback and dials it with one
// connection; both are torn down with the test.
func startStub(t *testing.T, b Backend, opts Options, copts fclient.Options) (*Server, *fclient.Client) {
	t.Helper()
	srv := NewBackend(b, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	copts.PoolSize = 1
	cl, err := fclient.Dial(ln.Addr().String(), copts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		shutdownClean(t, srv, done)
	})
	return srv, cl
}

// mallocsPerCall measures whole-process heap allocations — client, server,
// runtime — per call of f, over enough calls to amortize anything periodic.
func mallocsPerCall(t *testing.T, calls int, f func() error) float64 {
	t.Helper()
	for i := 0; i < 200; i++ { // grow the connection's buffers and free list first
		if err := f(); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if err := f(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(calls)
}

// TestRoundTripAllocs is the front hop's allocation gate: one loopback
// request/response through fclient, wire and server costs a constant
// handful of objects whatever the answer's group count (parent commit: 23
// for a 1-group answer, 270 for 83 groups). What remains is the decoded
// Result — 2 objects for one group of 3 rows, 4 for 83 groups
// (wire.DecodeResult) — and the server's string(payload): 3 and 5. Both
// were 5 before a one-group Result became one block.
func TestRoundTripAllocs(t *testing.T) {
	_, cl := startStub(t, stubWith(1, 83), Options{}, fclient.Options{})
	for _, c := range []struct {
		groups int
		budget float64
	}{{1, 3.5}, {83, 5.5}} {
		groups, budget := c.groups, c.budget
		sql := shapedKey(groups)
		n := mallocsPerCall(t, 20_000, func() error {
			res, err := cl.Query(sql)
			if err == nil && len(res.Groups) != groups {
				err = errors.New("wrong answer")
			}
			return err
		})
		t.Logf("Query, %d groups: %.2f mallocs per call", groups, n)
		if n > budget {
			t.Errorf("Query, %d groups: %.2f mallocs per call, want <= %.1f", groups, n, budget)
		}
	}
	insert := "INSERT INTO facts VALUES " + strings.Repeat("('P1', 'C1', 1.0), ", 10<<10/19)
	n := mallocsPerCall(t, 20_000, func() error { return cl.Exec(insert) })
	t.Logf("Exec, %d-byte statement: %.2f mallocs per call", len(insert), n)
	if n > 3 {
		t.Errorf("Exec: %.2f mallocs per call, want <= 3", n)
	}
}

// TestPipelinedQueriesGetOwnAnswers drives 64 goroutines × 1000 queries
// over ONE connection: client flushes are coalesced across senders, server
// flushes across already-buffered requests, and every caller must still get
// the answer to its own statement. Afterwards a lone request on the now
// idle connection must be flushed at once on both sides — bounded latency,
// not just eventual completion. Run with -race.
func TestPipelinedQueriesGetOwnAnswers(t *testing.T) {
	const goroutines, perGoroutine = 64, 1000
	_, cl := startStub(t, stubBackend{}, Options{}, fclient.Options{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				sql := "SELECT " + strconv.Itoa(g) + "/" + strconv.Itoa(i)
				res, err := cl.Query(sql)
				if err != nil {
					t.Errorf("%s: %v", sql, err)
					return
				}
				if res.Plan != sql {
					t.Errorf("%s: got the answer to %q", sql, res.Plan)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < 20; i++ {
		start := time.Now()
		if _, err := cl.Query("SELECT lone"); err != nil {
			t.Fatal(err)
		}
		// An unflushed frame would sit until the 30 s request timeout.
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("lone request %d took %v: left unflushed", i, d)
		}
	}
}

// TestLargeAnswerNotRetained pins the scratch-buffer cap: after one 2 MiB
// answer, an idle connection must not keep megabytes of response or frame
// buffer alive on either side (the parent commit kept the server's response
// buffer for the connection's life). Measured black-box as live heap after
// GC with the connection still open.
func TestLargeAnswerNotRetained(t *testing.T) {
	big := shaped(1, 2<<20/25, "big")
	_, cl := startStub(t, stubBackend{results: map[string]*f2db.Result{"SELECT big": big}}, Options{}, fclient.Options{})
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	if _, err := cl.Query("SELECT small"); err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	res, err := cl.Query("SELECT big")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(wire.AppendResult(nil, res)); n < 2<<20 {
		t.Fatalf("answer is only %d bytes", n)
	}
	res = nil
	// One more small round trip: the buffers are released after use, and
	// this proves the connection lived on.
	if _, err := cl.Query("SELECT small"); err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	if grown := int64(after) - int64(before); grown > 4*wire.ScratchCap {
		t.Fatalf("connection retains %d KiB after a 2 MiB answer, want <= %d KiB", grown>>10, 4*wire.ScratchCap>>10)
	}
}
