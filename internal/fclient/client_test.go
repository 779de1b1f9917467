package fclient

import (
	"bufio"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cubefc/internal/wire"
)

// fakeServer is a minimal wire-protocol peer for exercising the client's
// connection lifecycle without an engine. The handler returns false to
// close the connection (after whatever it chose to write itself).
type fakeServer struct {
	t       *testing.T
	ln      net.Listener
	handler func(nc net.Conn, typ wire.Type, payload []byte) bool

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	open     atomic.Int32
	accepted atomic.Int32
	wg       sync.WaitGroup
}

// pongHandler answers every request like a healthy server: PONG for PING,
// OK for EXEC, STATS_TEXT for STATS.
func pongHandler(nc net.Conn, typ wire.Type, payload []byte) bool {
	switch typ {
	case wire.TPing:
		writeFrame(nc, wire.TPong, payload)
	case wire.TExec:
		writeFrame(nc, wire.TOK, nil)
	case wire.TStats:
		writeFrame(nc, wire.TStatsText, []byte("ok"))
	default:
		writeFrame(nc, wire.TError, wire.AppendError(nil, wire.CodeBadRequest, "unexpected"))
	}
	return true
}

// writeFrame sends one frame at once, as the fake peers' handlers expect.
func writeFrame(nc net.Conn, typ wire.Type, payload []byte) {
	bw := bufio.NewWriter(nc)
	_ = wire.WriteFrame(bw, typ, payload)
	_ = bw.Flush()
}

// startFake serves on addr ("" for an ephemeral port) with the handler.
func startFake(t *testing.T, addr string, handler func(net.Conn, wire.Type, []byte) bool) *fakeServer {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	return startFakeOn(t, ln, handler)
}

// startFakeOn serves on an existing listener.
func startFakeOn(t *testing.T, ln net.Listener, handler func(net.Conn, wire.Type, []byte) bool) *fakeServer {
	t.Helper()
	s := &fakeServer{t: t, ln: ln, handler: handler, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns[nc] = struct{}{}
			s.mu.Unlock()
			s.open.Add(1)
			s.accepted.Add(1)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer func() {
					_ = nc.Close()
					s.mu.Lock()
					delete(s.conns, nc)
					s.mu.Unlock()
					s.open.Add(-1)
				}()
				fr := wire.NewReader(nc)
				for {
					typ, payload, err := fr.ReadFrame(nil)
					if err != nil {
						return
					}
					if !s.handler(nc, typ, payload) {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(s.stop)
	return s
}

func (s *fakeServer) addr() string { return s.ln.Addr().String() }

func (s *fakeServer) stop() {
	_ = s.ln.Close()
	s.mu.Lock()
	for nc := range s.conns {
		_ = nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// deadAddr returns an address that refuses connections.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// TestDialFailureReleasesResources pins the Dial leak: when the
// verification Ping is answered with a server error (a draining server),
// the failed Dial must close its pooled connection and let its readLoop
// exit instead of leaking both.
func TestDialFailureReleasesResources(t *testing.T) {
	srv := startFake(t, "", func(nc net.Conn, typ wire.Type, payload []byte) bool {
		writeFrame(nc, wire.TError, wire.AppendError(nil, wire.CodeShutdown, "server draining"))
		return true
	})
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		if _, err := Dial(srv.addr(), Options{PoolSize: 2}); err == nil {
			t.Fatal("Dial succeeded against a draining server")
		}
	}
	waitFor(t, "server-side connections to close", func() bool { return srv.open.Load() == 0 })
	waitFor(t, "client goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// TestCloseRedialRace pins the Close/redial race: a request in flight
// during Close must not install a fresh connection that survives the close
// sweep. Run with -race.
func TestCloseRedialRace(t *testing.T) {
	srv := startFake(t, "", pongHandler)
	for iter := 0; iter < 50; iter++ {
		c, err := Dial(srv.addr(), Options{PoolSize: 2})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for j := 0; j < 8; j++ {
					if err := c.Ping(); err != nil && !errors.Is(err, ErrClosed) && IsRetryable(err) == false {
						t.Errorf("ping: %v", err)
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_ = c.Close()
		}()
		close(start)
		wg.Wait()
		for i := range c.slots {
			c.slots[i].mu.Lock()
			leaked := c.slots[i].c != nil
			c.slots[i].mu.Unlock()
			if leaked {
				t.Fatal("slot still holds a connection after Close")
			}
		}
	}
	waitFor(t, "server-side connections to close", func() bool { return srv.open.Load() == 0 })
}

// TestExecRetriesDialFailure: a dial-time failure sends zero bytes, so
// Exec must use up its retry instead of surfacing it. The server is down
// for the first attempt and brought back (by the dial hook) before the
// second.
func TestExecRetriesDialFailure(t *testing.T) {
	srv := startFake(t, "", pongHandler)
	addr := srv.addr()
	c, err := Dial(addr, Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.stop()
	waitFor(t, "pooled connection to die", func() bool {
		c.slots[0].mu.Lock()
		defer c.slots[0].mu.Unlock()
		return c.slots[0].c == nil || c.slots[0].c.dead.Load()
	})
	var dials atomic.Int32
	c.dial = func(addr string) (net.Conn, error) {
		if dials.Add(1) > 1 {
			return dialTCP(addr)
		}
		nc, err := dialTCP(addr)
		// Bring the server back between attempt 1 and attempt 2.
		startFake(t, addr, pongHandler)
		return nc, err
	}
	if err := c.Exec("INSERT INTO facts VALUES (0, 'P1', 'C1', 1)"); err != nil {
		t.Fatalf("Exec after dial-failure retry: %v", err)
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("Exec dialed %d times, want 2", n)
	}
}

// TestExecNotRetriedAfterSend: once the frame may have been written, Exec
// must not be retried although the request has a second attempt left.
func TestExecNotRetriedAfterSend(t *testing.T) {
	var execSeen atomic.Int32
	srv := startFake(t, "", func(nc net.Conn, typ wire.Type, payload []byte) bool {
		if typ == wire.TExec {
			execSeen.Add(1)
			return false // close without answering: ambiguous post-send failure
		}
		return pongHandler(nc, typ, payload)
	})
	c, err := Dial(srv.addr(), Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Exec("INSERT INTO facts VALUES (0, 'P1', 'C1', 1)")
	if err == nil {
		t.Fatal("Exec succeeded with no response")
	}
	if !IsRetryable(err) {
		t.Fatalf("post-send transport failure should classify retryable for caller policies, got %v", err)
	}
	if n := execSeen.Load(); n != 1 {
		t.Fatalf("server saw %d EXEC frames, want exactly 1", n)
	}
}

// TestBackoffSchedule pins the attempt schedule: a request gets exactly
// two attempts, so one Ping and one Exec against a dead address each dial
// twice and then surface a retryable transport error.
func TestBackoffSchedule(t *testing.T) {
	c := NewClient(deadAddr(t), Options{PoolSize: 1})
	defer c.Close()
	var dials atomic.Int32
	c.dial = func(addr string) (net.Conn, error) {
		dials.Add(1)
		return dialTCP(addr)
	}
	for _, req := range []struct {
		name string
		do   func() error
	}{
		{"Ping", c.Ping},
		{"Exec", func() error { return c.Exec("INSERT INTO facts VALUES (0, 'P1', 'C1', 1)") }},
	} {
		dials.Store(0)
		if err := req.do(); err == nil || !IsRetryable(err) {
			t.Fatalf("%s against a dead address: %v, want a retryable failure", req.name, err)
		}
		if n := dials.Load(); n != 2 {
			t.Fatalf("%s dialed %d times, want 2", req.name, n)
		}
	}
}

// TestHealthCooldown pins that the client keeps no health state: after a
// run of failures against a dead address, the very next request once a
// server listens there is served — no cooldown refuses it. Shard health is
// the coordinator's to decide.
func TestHealthCooldown(t *testing.T) {
	addr := deadAddr(t)
	c := NewClient(addr, Options{PoolSize: 1})
	defer c.Close()
	for i := 0; i < 5; i++ {
		if err := c.Ping(); err == nil || !IsRetryable(err) {
			t.Fatalf("ping %d against a dead address: %v, want a retryable failure", i, err)
		}
	}
	var srv *fakeServer
	for attempt := 0; attempt < 20 && srv == nil; attempt++ {
		if ln, err := net.Listen("tcp", addr); err == nil {
			srv = startFakeOn(t, ln, pongHandler)
		} else {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if srv == nil {
		t.Skipf("could not rebind %s", addr)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("first ping after the server came up: %v", err)
	}
}

// TestOversizedFrame pins the oversized-statement bug: a statement no frame
// can carry used to be discovered by the frame writer after the call was
// enqueued, which failed the connection (and every call in flight on it),
// was classified retryable, and killed a second connection on the retry.
// It must instead fail alone, before any connection is involved.
func TestOversizedFrame(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv := startFake(t, "", func(nc net.Conn, typ wire.Type, payload []byte) bool {
		if typ == wire.TStats { // the in-flight call: held until released
			once.Do(func() { close(entered) })
			<-release
		}
		return pongHandler(nc, typ, payload)
	})
	c, err := Dial(srv.addr(), Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	accepted := srv.accepted.Load()

	inFlight := make(chan error, 1)
	go func() {
		_, err := c.Stats()
		inFlight <- err
	}()
	<-entered

	huge := strings.Repeat("x", 17<<20)
	if _, err := c.Query(huge); err != wire.ErrFrameTooLarge {
		t.Fatalf("oversized Query: got %v, want wire.ErrFrameTooLarge unwrapped", err)
	}
	err = c.Exec(huge)
	if err != wire.ErrFrameTooLarge {
		t.Fatalf("oversized Exec: got %v, want wire.ErrFrameTooLarge unwrapped", err)
	}
	if IsRetryable(err) {
		t.Fatal("an oversized statement is classified retryable")
	}

	close(release)
	if err := <-inFlight; err != nil {
		t.Fatalf("call in flight on the same connection died: %v", err)
	}
	// The largest statement a frame can carry still goes through (the fake
	// answers QUERY with a server error, which is an answer).
	var se *wire.ServerError
	if _, err := c.Query(huge[:wire.MaxFrame-1]); !errors.As(err, &se) {
		t.Fatalf("largest legal statement: %v", err)
	}
	if got := srv.accepted.Load(); got != accepted {
		t.Fatalf("server accepted %d connections, want %d: the oversized statement cost a connection", got, accepted)
	}
}

// TestFlushOnEveryPath pins the coalesced-flush invariant: a sender that
// leaves its flush to one queued behind it must get flushed even when that
// successor writes nothing (here: it finds the pipeline full).
func TestFlushOnEveryPath(t *testing.T) {
	seen := make(chan string, 1)
	srv := startFake(t, "", func(nc net.Conn, typ wire.Type, payload []byte) bool {
		if typ == wire.TExec {
			seen <- string(payload)
		}
		return true // never answers: the calls below are failed by Close
	})
	nc, err := net.Dial("tcp", srv.addr())
	if err != nil {
		t.Fatal(err)
	}
	cn := newConn(nc)
	defer cn.fail(ErrClosed)
	// Fill the pipeline to one below its bound with placeholder calls.
	for i := 0; i < maxPipeline-1; i++ {
		cn.pending <- &call{sig: make(chan struct{}, 1)}
	}
	// A writes while another sender appears to be queued on wmu, so it
	// leaves the flush to that sender.
	cn.waiting.Add(1)
	go cn.roundtrip(wire.TExec, "A", false, time.Minute)
	waitFor(t, "A's frame to be buffered", func() bool {
		cn.wmu.Lock()
		defer cn.wmu.Unlock()
		return cn.bw.Buffered() > 0
	})
	select {
	case got := <-seen:
		t.Fatalf("frame %q flushed although a sender was queued", got)
	case <-time.After(50 * time.Millisecond):
	}
	// The queued sender arrives, finds the pipeline full and sends nothing
	// — but must still flush what A left behind.
	cn.waiting.Add(-1)
	if _, sent, err := cn.roundtrip(wire.TExec, "B", false, time.Minute); err == nil || sent {
		t.Fatalf("B: sent=%v err=%v, want an unsent pipeline-full failure", sent, err)
	}
	select {
	case got := <-seen:
		if got != "A" {
			t.Fatalf("server saw %q, want A", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("A's frame was never flushed")
	}
}
