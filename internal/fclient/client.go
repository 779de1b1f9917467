// Package fclient is the Go client for an F²DB wire-protocol server
// (internal/server, the f2dbd daemon). It maintains a fixed-size pool of
// TCP connections, pipelines concurrent requests over them (responses on a
// connection arrive strictly in request order, so a FIFO of waiting calls
// per connection suffices — no request IDs), and transparently reconnects.
//
// I/O: each connection writes through one buffered writer and flushes only
// when no other sender is already waiting for its turn, so a burst of
// concurrent requests leaves in one write; its read loop reads through one
// buffered reader into one reusable frame buffer and decodes (QueryRaw:
// checks and copies) each response before reading the next, so nothing a
// caller receives aliases that buffer. In-flight call records (signal
// channel, timer) are recycled on a
// per-connection free list rather than allocated per request.
//
// Retry policy: every request gets two attempts, the second at once on a
// freshly dialed connection. Failures where provably zero bytes of the
// request reached the wire — a failed dial, a connection already known
// dead, a full pipeline — are safe to retry for ANY request, including
// Exec. Once the frame may have been written, only idempotent requests
// (Query, Ping, Stats, Info) are retried; Exec (INSERT) is not, because a
// duplicate insert into the same batch is an engine error and the first
// attempt may have applied. Server errors (wire.ServerError) and answers
// that do not decode (ErrMalformed) are never retried — the server
// answered. A statement too large for one frame
// fails with wire.ErrFrameTooLarge before any connection is involved: it
// is not a transport failure and not retryable.
//
// The client keeps no health state: whether an address is worth asking
// again is the caller's decision (the cluster coordinator marks a shard
// down and paces its own probes).
package fclient

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cubefc/internal/f2db"
	"cubefc/internal/wire"
)

// Options tunes a client. The zero value selects the documented default.
type Options struct {
	// PoolSize is the number of pooled connections requests are spread
	// over round-robin. Default 4.
	PoolSize int
}

const (
	// dialTimeout bounds one connection attempt.
	dialTimeout = 5 * time.Second
	// requestTimeout bounds one request round trip. A request that times
	// out poisons its connection (a pipelined stream with one lost
	// response cannot be resynchronized), failing other calls in flight on
	// it; they surface transport errors and retry if idempotent.
	requestTimeout = 30 * time.Second
)

// ErrClosed is returned by requests on a closed client.
var ErrClosed = errors.New("fclient: client closed")

// ErrMalformed wraps an answer that arrived whole but does not decode: the
// stream is still in step, so it is not a transport failure.
var ErrMalformed = errors.New("fclient: malformed response")

// errConnBroken marks transport-level failures eligible for reconnect.
var errConnBroken = errors.New("fclient: connection broken")

// maxPipeline bounds the calls in flight on one connection; further sends
// block until responses drain.
const maxPipeline = 512

// Client is a pooled, pipelining F²DB client. It is safe for concurrent
// use by any number of goroutines.
type Client struct {
	addr   string
	slots  []slot
	next   atomic.Uint64
	closed atomic.Bool

	// dial opens one connection to addr; tests substitute it to act
	// between a request's two attempts.
	dial func(addr string) (net.Conn, error)
}

// slot is one pool position: a lazily (re)dialed connection.
type slot struct {
	mu sync.Mutex
	c  *conn
}

// Dial creates a client for the server at addr and verifies connectivity
// with a Ping on one pooled connection. On any failure — including a
// server-error answer to the verification Ping — the pool is closed
// before returning, so no connection or readLoop goroutine outlives a
// failed Dial.
func Dial(addr string, opts Options) (*Client, error) {
	c := NewClient(addr, opts)
	if err := c.Ping(); err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("fclient: dial %s: %w", addr, err)
	}
	return c, nil
}

// NewClient creates a client without verifying connectivity: connections
// are dialed lazily on first use. Callers that tolerate an initially-down
// server (the cluster coordinator, whose first Info decides whether a
// shard starts up or down) use it instead of Dial.
func NewClient(addr string, opts Options) *Client {
	n := opts.PoolSize
	if n <= 0 {
		n = 4
	}
	return &Client{addr: addr, slots: make([]slot, n), dial: dialTCP}
}

// dialTCP opens one connection with Nagle off: frames are already
// coalesced in the connection's buffered writer.
func dialTCP(addr string) (net.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return nc, err
}

// Close closes every pooled connection. In-flight requests fail with
// transport errors.
func (c *Client) Close() error {
	c.closed.Store(true)
	for i := range c.slots {
		sl := &c.slots[i]
		sl.mu.Lock()
		if sl.c != nil {
			sl.c.fail(ErrClosed)
			sl.c = nil
		}
		sl.mu.Unlock()
	}
	return nil
}

// Query executes a SELECT (idempotent; retried on reconnect).
func (c *Client) Query(sql string) (*f2db.Result, error) {
	rp, err := c.do(wire.TQuery, sql, false, true, wire.TResult)
	return rp.res, err
}

// QueryRaw is Query returning the RESULT payload, checked with
// wire.CheckResult and copied but not decoded, for a tier that relays it.
func (c *Client) QueryRaw(sql string) ([]byte, error) {
	rp, err := c.do(wire.TQuery, sql, true, true, wire.TResult)
	return rp.raw, err
}

// Exec executes an INSERT. Not idempotent: it is retried only on failures
// where provably nothing was sent (failed dials), never once the frame may
// have reached the server.
func (c *Client) Exec(sql string) error {
	_, err := c.do(wire.TExec, sql, false, false, wire.TOK)
	return err
}

// Ping round-trips a liveness probe (idempotent; retried on reconnect).
func (c *Client) Ping() error {
	_, err := c.do(wire.TPing, "", false, true, wire.TPong)
	return err
}

// Stats fetches the server's engine-counter rendering (idempotent).
func (c *Client) Stats() (string, error) {
	rp, err := c.do(wire.TStats, "", false, true, wire.TStatsText)
	return rp.text, err
}

// Info fetches the server's identity snapshot: its start nonce and applied
// insert/batch counters (idempotent). Cluster coordinators use it to tell
// a restarted server from a network blip.
func (c *Client) Info() (wire.Info, error) {
	rp, err := c.do(wire.TInfo, "", false, true, wire.TInfoData)
	return rp.info, err
}

// do runs one request with pooling, pipelining and its one retry. Both
// attempts use one pool slot, so a retry redials; an attempt that fails
// after the frame may have been written stops a non-idempotent request
// immediately (see the package doc). raw asks for a RESULT as checked
// bytes. want is the response type that answers t; anything else the
// server sends back is an error.
func (c *Client) do(t wire.Type, sql string, raw, idempotent bool, want wire.Type) (reply, error) {
	if c.closed.Load() {
		return reply{}, ErrClosed
	}
	if 1+len(sql) > wire.MaxFrame {
		// Checked before a connection is picked: writing would fail without
		// sending a byte, and must not take the pool down with it.
		return reply{}, wire.ErrFrameTooLarge
	}
	sl := &c.slots[c.next.Add(1)%uint64(len(c.slots))]
	var err error
	for a := 0; a < 2; a++ {
		var cn *conn
		if cn, err = sl.get(c); err != nil {
			if errors.Is(err, ErrClosed) {
				return reply{}, ErrClosed
			}
			// Dial-time failure: zero bytes were sent, so retrying is safe
			// for any request, Exec included.
			continue
		}
		var rp reply
		var sent bool
		if rp, sent, err = cn.roundtrip(t, sql, raw, requestTimeout); err == nil {
			// A server error means the server processed the request: a
			// retry would re-run it, so surface it even for idempotent calls.
			if rp.err == nil && rp.t != want {
				rp.err = fmt.Errorf("fclient: unexpected %v response to %v", rp.t, t)
			}
			return rp, rp.err
		}
		// Transport failure: this connection is unusable; drop it so the
		// retry redials.
		sl.discard(cn)
		if sent && !idempotent {
			// The frame may have reached the server; a duplicate INSERT is
			// an engine error, so surface instead of retrying.
			return reply{}, err
		}
	}
	return reply{}, err
}

// get returns the slot's live connection, dialing a fresh one if the slot
// is empty or its connection died. The closed check lives under the slot
// lock so a racing Close cannot sweep the pool between the check and the
// install — without it, a request racing Close could install (and leak) a
// fresh connection after the sweep.
func (sl *slot) get(c *Client) (*conn, error) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if c.closed.Load() {
		return nil, ErrClosed
	}
	if sl.c != nil && !sl.c.dead.Load() {
		return sl.c, nil
	}
	nc, err := c.dial(c.addr)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errConnBroken, err)
	}
	cn := newConn(nc)
	sl.c = cn
	return cn, nil
}

// discard drops a connection from its slot (if still installed) so the
// next get redials.
func (sl *slot) discard(cn *conn) {
	cn.fail(errConnBroken)
	sl.mu.Lock()
	if sl.c == cn {
		sl.c = nil
	}
	sl.mu.Unlock()
}

// conn is one pooled connection with a pipelined call FIFO.
type conn struct {
	nc      net.Conn
	bw      *bufio.Writer
	wmu     sync.Mutex   // serializes frame writes and FIFO enqueues
	waiting atomic.Int32 // senders queued on wmu: the last of them flushes for all
	pending chan *call   // FIFO of calls awaiting responses
	// free recycles call records. At most maxPipeline calls are in flight,
	// so a free list of that size never turns one away for long.
	free    chan *call
	dead    atomic.Bool
	failOne sync.Once
	errMu   sync.Mutex
	err     error
}

// reply is a response decoded on the read loop, while the frame buffer
// still holds it.
type reply struct {
	t    wire.Type
	res  *f2db.Result // TResult
	raw  []byte       // TResult for QueryRaw
	text string       // TStatsText
	info wire.Info    // TInfoData
	// err is the server's answer when that answer is an error (a decoded
	// TError), or a payload that failed to decode. Either way the server
	// answered: it is not a transport failure.
	err error
}

// call is one in-flight request. A call is signalled exactly once per use
// — by the read loop or by fail, whichever takes it off the FIFO.
type call struct {
	sig   chan struct{} // cap 1
	timer *time.Timer
	raw   bool // deliver a RESULT as bytes (QueryRaw)
	rp    reply
	err   error // transport failure
}

func newConn(nc net.Conn) *conn {
	c := &conn{
		nc:      nc,
		bw:      bufio.NewWriter(nc),
		pending: make(chan *call, maxPipeline),
		free:    make(chan *call, maxPipeline),
	}
	go c.readLoop(wire.NewReader(nc))
	return c
}

// roundtrip sends one frame and waits for its in-order response. The sent
// result reports whether any of the frame may have been written: failures
// with sent == false (connection already dead, pipeline full) provably put
// zero bytes on the wire and are safe to retry even for non-idempotent
// requests.
func (c *conn) roundtrip(t wire.Type, sql string, raw bool, timeout time.Duration) (_ reply, sent bool, _ error) {
	var ca *call
	select {
	case ca = <-c.free:
	default:
		ca = &call{sig: make(chan struct{}, 1), timer: time.NewTimer(time.Hour)}
		ca.timer.Stop()
	}
	ca.raw = raw
	c.waiting.Add(1)
	c.wmu.Lock()
	c.waiting.Add(-1)
	if c.dead.Load() {
		c.wmu.Unlock()
		return reply{}, false, c.lastErr()
	}
	var err error
	select {
	case c.pending <- ca:
		// From here the frame write is attempted: even a write error may
		// have put a partial frame on the wire.
		sent = true
		err = wire.WriteFrameString(c.bw, t, sql)
	default:
	}
	// Flush unless another sender is already queued on wmu: it will write
	// its frame behind ours and flush both (on every path through here,
	// this one included), so a burst of senders costs one write. A lone
	// sender sees nobody waiting and flushes at once.
	if err == nil && c.waiting.Load() == 0 {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		// The write failed with calls enqueued; kill the connection so the
		// read loop fails the FIFO (including ours) and no later response
		// can be matched to the wrong call.
		c.fail(fmt.Errorf("%w: write: %w", errConnBroken, err))
	}
	if !sent {
		return reply{}, false, fmt.Errorf("%w: pipeline full (%d in flight)", errConnBroken, maxPipeline)
	}
	ca.timer.Reset(timeout)
	select {
	case <-ca.sig:
		// go.mod predates Go 1.23's timer channels: drain a timer that
		// fired as the response arrived, or its stale tick fails the
		// call's next use.
		if !ca.timer.Stop() {
			<-ca.timer.C
		}
	case <-ca.timer.C:
		// A pipelined connection that lost one response cannot be reused:
		// every later response would shift onto the wrong call. Poison it
		// and wait for the read loop to fail our call deterministically
		// (or to deliver the response that arrived in the closing race).
		c.fail(fmt.Errorf("%w: request timed out after %v", errConnBroken, timeout))
		<-ca.sig
	}
	rp, err := ca.rp, ca.err
	ca.rp, ca.err = reply{}, nil
	select {
	case c.free <- ca:
	default:
	}
	return rp, true, err
}

// readLoop matches response frames to the call FIFO. Each response is
// decoded here, before the next ReadFrame reuses the buffer it sits in.
func (c *conn) readLoop(fr *wire.Reader) {
	var buf []byte
	for {
		t, payload, err := fr.ReadFrame(buf)
		if err != nil {
			c.fail(fmt.Errorf("%w: read: %w", errConnBroken, err))
			return
		}
		if !t.IsResponse() {
			c.fail(fmt.Errorf("%w: non-response frame %v", errConnBroken, t))
			return
		}
		select {
		case ca := <-c.pending:
			ca.rp = decodeReply(t, payload, ca.raw)
			ca.sig <- struct{}{}
		default:
			c.fail(fmt.Errorf("%w: unsolicited response %v", errConnBroken, t))
			return
		}
		buf = wire.Scratch(payload)
	}
}

// decodeReply turns a response frame into values that do not alias payload.
func decodeReply(t wire.Type, payload []byte, raw bool) reply {
	rp := reply{t: t}
	switch t {
	case wire.TResult:
		if !raw {
			rp.res, rp.err = wire.DecodeResult(payload)
		} else if rp.err = wire.CheckResult(payload); rp.err == nil {
			rp.raw = append([]byte(nil), payload...)
		}
	case wire.TStatsText:
		rp.text = string(payload)
	case wire.TInfoData:
		rp.info, rp.err = wire.DecodeInfo(payload)
	case wire.TError:
		se, err := wire.DecodeError(payload)
		if err == nil {
			rp.err = se
			return rp
		}
		rp.err = err
	}
	if rp.err != nil {
		rp.err = fmt.Errorf("%w: %v %w", ErrMalformed, t, rp.err)
	}
	return rp
}

// fail marks the connection dead, closes it and fails every call still in
// the FIFO. Safe to call from any goroutine, any number of times.
func (c *conn) fail(err error) {
	c.failOne.Do(func() {
		c.errMu.Lock()
		c.err = err
		c.errMu.Unlock()
		c.dead.Store(true)
		_ = c.nc.Close()
		// Block new enqueues, then drain the FIFO: wmu excludes a sender
		// mid-enqueue, and dead is set, so after this loop no call can be
		// stranded.
		c.wmu.Lock()
		for {
			select {
			case ca := <-c.pending:
				ca.err = err
				ca.sig <- struct{}{}
			default:
				c.wmu.Unlock()
				return
			}
		}
	})
}

func (c *conn) lastErr() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	if c.err != nil {
		return c.err
	}
	return errConnBroken
}

// IsRetryable reports whether err is a transport-level failure (as opposed
// to a server-processed wire.ServerError, a malformed answer, or a statement
// no frame can carry)
// — useful for callers layering their own retry policies over Exec.
func IsRetryable(err error) bool {
	var se *wire.ServerError
	return err != nil && !errors.As(err, &se) && !errors.Is(err, ErrClosed) &&
		!errors.Is(err, wire.ErrFrameTooLarge) && !errors.Is(err, ErrMalformed)
}
