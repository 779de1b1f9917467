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

// newTestClient builds a client without Dial's verification Ping so unit
// tests can target addresses with nothing listening.
func newTestClient(addr string, opts Options) *Client {
	c := &Client{addr: addr, opts: opts.withDefaults(), now: time.Now, sleep: func(time.Duration) {}}
	c.slots = make([]slot, c.opts.PoolSize)
	return c
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
		c, err := Dial(srv.addr(), Options{PoolSize: 2, Retries: 0})
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
// Exec must consume a retry instead of surfacing it. The server is down
// for the first attempt and brought back (by the backoff sleep hook)
// before the second.
func TestExecRetriesDialFailure(t *testing.T) {
	srv := startFake(t, "", pongHandler)
	addr := srv.addr()
	c, err := Dial(addr, Options{PoolSize: 1, Retries: 1})
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
	var restartOnce sync.Once
	c.sleep = func(time.Duration) {
		restartOnce.Do(func() {
			// Bring the server back between attempt 1 and attempt 2.
			srv2 := startFake(t, addr, pongHandler)
			_ = srv2
		})
	}
	if err := c.Exec("INSERT INTO facts VALUES (0, 'P1', 'C1', 1)"); err != nil {
		t.Fatalf("Exec after dial-failure retry: %v", err)
	}
}

// TestExecNotRetriedAfterSend: once the frame may have been written, Exec
// must not be retried even with a retry budget left.
func TestExecNotRetriedAfterSend(t *testing.T) {
	var execSeen atomic.Int32
	srv := startFake(t, "", func(nc net.Conn, typ wire.Type, payload []byte) bool {
		if typ == wire.TExec {
			execSeen.Add(1)
			return false // close without answering: ambiguous post-send failure
		}
		return pongHandler(nc, typ, payload)
	})
	c, err := Dial(srv.addr(), Options{PoolSize: 1, Retries: 3})
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

// TestBackoffSchedule verifies the jittered exponential delays between
// attempts using the sleep hook as a fake clock sink.
func TestBackoffSchedule(t *testing.T) {
	opts := Options{
		PoolSize:      1,
		Retries:       3,
		BackoffBase:   100 * time.Millisecond,
		BackoffMax:    350 * time.Millisecond,
		SickThreshold: 100, // keep health out of this test's way
		DialTimeout:   200 * time.Millisecond,
	}
	c := newTestClient(deadAddr(t), opts)
	var sleeps []time.Duration
	c.sleep = func(d time.Duration) { sleeps = append(sleeps, d) }
	if err := c.Ping(); err == nil {
		t.Fatal("ping succeeded against a dead address")
	}
	if len(sleeps) != 3 {
		t.Fatalf("got %d backoff sleeps, want 3 (one per retry)", len(sleeps))
	}
	// Attempt a sleeps base<<(a-1) capped at max, jittered to [d/2, 3d/2).
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 350 * time.Millisecond}
	for i, d := range sleeps {
		lo, hi := want[i]/2, want[i]*3/2
		if d < lo || d >= hi {
			t.Fatalf("backoff %d: slept %v, want in [%v, %v)", i+1, d, lo, hi)
		}
	}
}

// TestHealthCooldown drives the sick/cooldown state machine with a fake
// clock: failures past the threshold arm the cooldown, redials fail fast
// with ErrUnhealthy while it lasts, and a successful probe after the
// cooldown clears the state.
func TestHealthCooldown(t *testing.T) {
	addr := deadAddr(t)
	opts := Options{
		PoolSize:      1,
		Retries:       0,
		SickThreshold: 2,
		SickCooldown:  10 * time.Second,
		DialTimeout:   200 * time.Millisecond,
	}
	c := newTestClient(addr, opts)
	var clockMu sync.Mutex
	now := time.Unix(1_000_000, 0)
	c.now = func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		now = now.Add(d)
		clockMu.Unlock()
	}

	if err := c.Ping(); err == nil || errors.Is(err, ErrUnhealthy) {
		t.Fatalf("first failure: %v", err)
	}
	if !c.Healthy() {
		t.Fatal("sick after one failure, threshold is 2")
	}
	if err := c.Ping(); err == nil {
		t.Fatal("second ping succeeded")
	}
	if c.Healthy() {
		t.Fatal("still healthy after hitting the threshold")
	}
	err := c.Ping()
	if !errors.Is(err, ErrUnhealthy) {
		t.Fatalf("redial during cooldown: got %v, want ErrUnhealthy", err)
	}
	if !IsRetryable(err) {
		t.Fatal("ErrUnhealthy must classify as retryable")
	}
	if got := c.fails.Load(); got != 2 {
		t.Fatalf("fast-fail counted as a failure: fails=%d, want 2", got)
	}

	advance(11 * time.Second)
	if !c.Healthy() {
		t.Fatal("cooldown did not expire")
	}
	// A failed probe re-arms the cooldown immediately.
	if err := c.Ping(); err == nil || errors.Is(err, ErrUnhealthy) {
		t.Fatalf("probe: %v", err)
	}
	if c.Healthy() {
		t.Fatal("failed probe should re-arm the cooldown")
	}

	// Bring a real server up; a successful probe clears everything.
	advance(11 * time.Second)
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
		t.Fatalf("probe against recovered server: %v", err)
	}
	if c.fails.Load() != 0 || !c.Healthy() {
		t.Fatal("success did not clear health state")
	}
	_ = c.Close()
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
	c, err := Dial(srv.addr(), Options{PoolSize: 1, Retries: 1})
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
	if got := c.fails.Load(); got != 0 || !c.Healthy() {
		t.Fatalf("oversized statement counted against the address: fails=%d", got)
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
