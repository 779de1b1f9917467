// Package server exposes an embedded F²DB engine over a TCP listener
// speaking the internal/wire framed protocol — the client/server boundary
// the paper assumes (§V positions F²DB as a PostgreSQL extension answering
// forecast queries from client applications; this is the self-contained
// analogue of that server process).
//
// Connection model: one goroutine per accepted connection, reading frames
// sequentially through one buffered reader and answering them strictly in
// order (which is what lets clients pipeline) through one buffered writer,
// flushed only when no further request is already in hand — a pipelined
// burst is answered in one write. The accept loop holds a counting
// semaphore, so at most Options.MaxConns connections are ever live — excess
// dials queue in the listen backlog instead of exhausting server memory. Slow or stalled
// clients are bounded on both directions: reads carry an idle deadline,
// writes a write deadline. Each request is additionally bounded by a
// per-request timeout: the engine call runs on the connection's worker
// goroutine while the connection goroutine waits on it and on one reusable
// timer. On expiry the engine call keeps running (engine APIs are
// synchronous and cannot be aborted) but the client gets a CodeTimeout
// error in-order instead of an unbounded stall, and the connection moves on
// with a fresh worker and fresh buffers.
//
// Shutdown is drain-then-close: Shutdown stops the accept loop, lets every
// in-flight request (one whose frame was fully read) complete and be
// answered, gives each connection a short grace window to submit frames it
// had already pipelined, then closes. Connections idle past the grace
// window are closed immediately; a context deadline force-closes whatever
// is left.
package server

import (
	"bufio"
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cubefc/internal/f2db"
	"cubefc/internal/wire"
)

// Backend is what a server serves: the engine-shaped request surface the
// wire protocol maps onto. The embedded engine satisfies it via the
// adapter in New; the cluster coordinator (internal/coord) satisfies it
// directly, which is how a coordinator process speaks the same protocol as
// a shard. Implementations must be safe for concurrent use.
type Backend interface {
	// Query answers a SELECT statement.
	Query(sql string) (*f2db.Result, error)
	// Exec applies an INSERT statement.
	Exec(sql string) error
	// StatsText renders the human-readable counter snapshot served for
	// TStats requests.
	StatsText() string
	// Counts reports the applied base-value insert count and completed
	// batch count, served (with the server's start nonce) for TInfo.
	Counts() (inserts, batches uint64)
}

// engineBackend adapts an embedded *f2db.DB to the Backend interface.
type engineBackend struct {
	db *f2db.DB
}

func (b engineBackend) Query(sql string) (*f2db.Result, error) { return b.db.Query(sql) }

func (b engineBackend) Exec(sql string) error { return b.db.Exec(sql) }

func (b engineBackend) StatsText() string {
	var sb strings.Builder
	b.db.Registry().WriteStats(&sb)
	return sb.String()
}

func (b engineBackend) Counts() (uint64, uint64) {
	stats := b.db.Stats()
	return uint64(stats.Inserts), uint64(stats.Batches)
}

// ErrServerClosed is returned by Serve after Shutdown completes the drain.
var ErrServerClosed = errors.New("server: closed")

// Options tunes the server. The zero value selects the documented
// defaults.
type Options struct {
	// MaxConns caps concurrently served connections (the accept gate).
	// Default 256.
	MaxConns int
	// RequestTimeout bounds one request from fully-read frame to computed
	// response. Default 30s.
	RequestTimeout time.Duration
	// IdleTimeout bounds the wait for the next request frame on an idle
	// connection. Default 5m.
	IdleTimeout time.Duration
	// Logf, when non-nil, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MaxConns <= 0 {
		out.MaxConns = 256
	}
	if out.RequestTimeout <= 0 {
		out.RequestTimeout = 30 * time.Second
	}
	if out.IdleTimeout <= 0 {
		out.IdleTimeout = 5 * time.Minute
	}
	return out
}

const (
	// writeTimeout bounds writing one response to a slow client.
	writeTimeout = 30 * time.Second
	// drainGrace is the per-read deadline applied while draining, so frames
	// a client had already pipelined are still served but an idle
	// connection closes promptly.
	drainGrace = 250 * time.Millisecond
)

// Server serves one backend over one listener.
type Server struct {
	backend Backend
	// query answers TQuery by appending the encoded RESULT to dst.
	query func(dst []byte, sql string) ([]byte, error)
	opts  Options
	met   Metrics
	// nonce identifies this server process lifetime for TInfo responses; a
	// reconnecting peer seeing a different nonce knows the process (and any
	// purely in-memory state) was replaced.
	nonce uint64

	sem      chan struct{} // accept gate
	draining atomic.Bool

	mu    sync.Mutex
	ln    net.Listener
	conns map[*conn]struct{}
	wg    sync.WaitGroup

	// testHookBeforeHandle, when non-nil, runs after a request frame is
	// fully read but before it is dispatched — the window in which the
	// request is in-flight for drain purposes. Tests use it to hold a
	// request in-flight across a Shutdown; always nil in production.
	testHookBeforeHandle func(t wire.Type)
	// testHookInProcess, when non-nil, runs on the connection's worker
	// goroutine. Tests use it to stall a request past
	// RequestTimeout; always nil in production.
	testHookInProcess func(t wire.Type)
}

// New returns a server over an embedded engine. Serve must be called to
// start it.
func New(db *f2db.DB, opts Options) *Server {
	return NewBackend(engineBackend{db: db}, opts)
}

// NewBackend returns a server over an arbitrary backend (an engine
// adapter, or a cluster coordinator); see New. A backend with an
// AppendQuery method (the coordinator, which holds its shard's answers
// encoded) answers queries through it; any other has Query's answers
// encoded.
func NewBackend(b Backend, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		backend: b,
		opts:    opts,
		nonce:   newNonce(),
		sem:     make(chan struct{}, opts.MaxConns),
		conns:   make(map[*conn]struct{}),
	}
	if a, ok := b.(interface {
		AppendQuery(dst []byte, sql string) ([]byte, error)
	}); ok {
		s.query = a.AppendQuery
	} else {
		s.query = func(dst []byte, sql string) ([]byte, error) {
			res, err := b.Query(sql)
			if err != nil {
				return dst, err
			}
			return wire.AppendResult(dst, res), nil
		}
	}
	return s
}

// newNonce draws a random non-zero process-lifetime identifier.
func newNonce() uint64 {
	var buf [8]byte
	for {
		if _, err := crand.Read(buf[:]); err != nil {
			panic(fmt.Sprintf("server: nonce entropy unavailable: %v", err))
		}
		if n := binary.BigEndian.Uint64(buf[:]); n != 0 {
			return n
		}
	}
}

// Metrics returns the server's live counters (safe at any time, from any
// goroutine).
func (s *Server) Metrics() *Metrics { return &s.met }

// conn is one accepted connection.
type conn struct {
	nc net.Conn
}

// Serve accepts connections on ln until Shutdown. It always returns a
// non-nil error: ErrServerClosed after a clean shutdown, the accept error
// otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		// Acquire a connection slot before accepting so the server never
		// holds more than MaxConns connections; waiting dials sit in the
		// kernel backlog.
		s.sem <- struct{}{}
		nc, err := ln.Accept()
		if err != nil {
			<-s.sem
			if s.draining.Load() {
				return ErrServerClosed
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		c := &conn{nc: nc}
		s.mu.Lock()
		if s.draining.Load() {
			// Shutdown raced the accept: refuse politely.
			s.mu.Unlock()
			s.refuse(nc)
			<-s.sem
			continue
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.met.ConnsAccepted.Add(1)
		s.met.ConnsActive.Add(1)
		go func() {
			defer func() {
				s.mu.Lock()
				delete(s.conns, c)
				s.mu.Unlock()
				s.met.ConnsActive.Add(-1)
				s.wg.Done()
				<-s.sem
			}()
			s.handle(c)
		}()
	}
}

// refuse answers a connection accepted mid-shutdown with a single
// CodeShutdown error frame and closes it.
func (s *Server) refuse(nc net.Conn) {
	_ = nc.SetWriteDeadline(time.Now().Add(drainGrace))
	bw := bufio.NewWriter(nc)
	_ = wire.WriteFrame(bw, wire.TError, wire.AppendError(nil, wire.CodeShutdown, "server draining"))
	_ = bw.Flush() // best effort: the peer is being turned away either way
	_ = nc.Close()
}

// Shutdown drains the server: stop accepting, answer every in-flight
// request, give each connection drainGrace to flush pipelined frames, then
// close. It returns nil when every connection finished cleanly, or the
// context error if the deadline force-closed stragglers.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		_ = s.ln.Close()
	}
	// Nudge connections blocked in an idle read: shorten their read
	// deadline to the drain grace so the handler loop observes the drain.
	for c := range s.conns {
		_ = c.nc.SetReadDeadline(time.Now().Add(drainGrace))
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			_ = c.nc.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// handle runs one connection's read-dispatch-respond loop.
func (s *Server) handle(c *conn) {
	defer c.nc.Close()
	fr, bw := wire.NewReader(c.nc), bufio.NewWriter(c.nc)
	// An answer written while the next frame was arriving is still owed
	// when that frame never completes; best effort, the peer may be gone.
	defer bw.Flush()
	w := s.startWorker()
	defer func() { close(w.req) }()
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	// in and out are the request and response scratch buffers. The worker
	// borrows both for the length of one request; a request that times out
	// keeps them for good.
	var in, out []byte
	for {
		if s.draining.Load() {
			_ = c.nc.SetReadDeadline(time.Now().Add(drainGrace))
		} else {
			_ = c.nc.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
		}
		t, payload, err := fr.ReadFrame(in)
		if err != nil {
			// EOF, idle timeout, drain-grace expiry, or a broken frame:
			// all end the connection. Nothing read means nothing owed. A
			// clean EOF at a frame boundary is a client hanging up, not
			// worth a log line.
			if !errors.Is(err, io.EOF) {
				s.logf("conn %s: read: %v", c.nc.RemoteAddr(), err)
			}
			return
		}
		// The frame is fully read: from here the request is in-flight and
		// the drain protocol guarantees it an answer.
		if s.testHookBeforeHandle != nil {
			s.testHookBeforeHandle(t)
		}
		start := time.Now()
		timer.Reset(s.opts.RequestTimeout)
		w.req <- request{t, payload, out}
		var resp response
		select {
		case resp = <-w.resp:
			// go.mod predates Go 1.23's timer channels: a timer that fired
			// while the answer won the select must be drained before the
			// next Reset, or its stale tick times out the next request.
			if !timer.Stop() {
				<-timer.C
			}
		case <-timer.C:
			// The engine call cannot be aborted: leave the worker to finish
			// it into the buffers it holds, and carry on with a new pair so
			// the straggler never touches memory this connection reuses. A
			// timed-out request may therefore still take effect server-side
			// — documented in wire.CodeTimeout.
			close(w.req)
			w, payload = s.startWorker(), nil
			s.met.Timeouts.Add(1)
			s.met.Errors.Add(1)
			resp = response{wire.TError, wire.AppendError(nil, wire.CodeTimeout,
				fmt.Sprintf("request exceeded %v", s.opts.RequestTimeout))}
		}
		s.met.RequestLatency.Observe(time.Since(start).Nanoseconds())
		_ = c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		err = wire.WriteFrame(bw, resp.t, resp.payload)
		// Flush unless the next request is already buffered: its answer
		// will share the write. A lone request is flushed at once.
		if err == nil && fr.Buffered() == 0 {
			err = bw.Flush()
		}
		if err != nil {
			s.logf("conn %s: write: %v", c.nc.RemoteAddr(), err)
			return
		}
		in, out = wire.Scratch(payload), wire.Scratch(resp.payload)
	}
}

// request is one frame handed to a connection's worker: its type, its
// payload and the scratch buffer the response may be appended to.
type request struct {
	t            wire.Type
	payload, buf []byte
}

// response couples a response frame's type and payload.
type response struct {
	t       wire.Type
	payload []byte
}

// worker runs one connection's engine calls, one at a time, so that the
// connection goroutine stays free to answer CodeTimeout in order. It lives
// as long as the connection, or until a request times out on it.
type worker struct {
	req  chan request
	resp chan response // cap 1: an abandoned worker parks its late answer here and exits
}

// startWorker starts a worker; closing its req channel stops it once the
// request it is running (if any) returns.
func (s *Server) startWorker() *worker {
	w := &worker{req: make(chan request), resp: make(chan response, 1)}
	go func() {
		for rq := range w.req {
			w.resp <- s.process(rq.t, rq.payload, rq.buf)
		}
	}()
	return w
}

// process computes the response for one request. buf is an optional
// scratch buffer the payload may be appended to.
func (s *Server) process(t wire.Type, payload, buf []byte) response {
	if s.testHookInProcess != nil {
		s.testHookInProcess(t)
	}
	switch t {
	case wire.TPing:
		s.met.Pings.Add(1)
		return response{wire.TPong, append(buf, payload...)}
	case wire.TStats:
		s.met.StatsReqs.Add(1)
		out := bytes.NewBuffer(append(buf, s.backend.StatsText()...))
		s.met.Registry().WriteStats(out)
		return response{wire.TStatsText, out.Bytes()}
	case wire.TInfo:
		s.met.InfoReqs.Add(1)
		inserts, batches := s.backend.Counts()
		return response{wire.TInfoData, wire.AppendInfo(buf, wire.Info{
			Nonce:   s.nonce,
			Inserts: inserts,
			Batches: batches,
		})}
	case wire.TQuery:
		s.met.Queries.Add(1)
		out, err := s.query(buf, string(payload))
		if err != nil {
			s.met.Errors.Add(1)
			return response{wire.TError, wire.AppendError(buf, wire.CodeQuery, err.Error())}
		}
		if len(out)+1 > wire.MaxFrame {
			s.met.Errors.Add(1)
			return response{wire.TError, wire.AppendError(nil, wire.CodeTooLarge,
				fmt.Sprintf("result of %d bytes exceeds the frame limit", len(out)))}
		}
		return response{wire.TResult, out}
	case wire.TExec:
		s.met.Execs.Add(1)
		if err := s.backend.Exec(string(payload)); err != nil {
			s.met.Errors.Add(1)
			return response{wire.TError, wire.AppendError(buf, wire.CodeQuery, err.Error())}
		}
		return response{wire.TOK, buf}
	default:
		s.met.Errors.Add(1)
		return response{wire.TError, wire.AppendError(buf, wire.CodeBadRequest,
			fmt.Sprintf("unknown request type %v", t))}
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}
