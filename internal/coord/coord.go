// Package coord is the shard-aware serving tier over N f2dbd shards: a
// coordinator that speaks the same Query/Exec surface as an embedded
// engine (it satisfies server.Backend), so f2dbcli -remote and the remote
// workload generator work unchanged against a cluster.
//
// Partitioning model. The engine's maintenance processor advances time
// only when EVERY base series of a batch has its pending value, and
// aggregate nodes derive from all of their base series — so a shard
// holding a subset of the series could never advance or answer aggregates.
// Each shard therefore runs a FULL engine replica over the same dataset
// and configuration, and the shard map partitions the QUERY space instead:
// ShardFor, a Fibonacci hash of the node ID, assigns every graph node an
// owning shard.
// Every statement goes whole to one shard: the owner of the first node it
// describes (its read table and lazily re-fit models stay hot for its
// partition). A drill-down is answered by that replica's own GROUP BY
// executor under one engine read lock, so all of its groups belong to one
// time point. Replicas make reads fault-tolerant: if an owner is down or
// lagging, the query fails over to the next caught-up shard in ring order.
//
// Writes and recovery. The coordinator runs the engine's batching rule
// itself (f2db.Planner.Fill), with the engine's text for duplicates, and
// logs each time point it completes as one INSERT of every base series. A
// statement that completes none costs no shard round trip and bumps no
// epoch. Entry i completes batch start+i+1 (start: the batch count of the
// first shard to answer); a shard's position is its batch count
// (wire.Info.Batches). A worker per shard sends entries in order as
// wire.TApply, which a shard acks if it holds the batch, applies if next
// and refuses on a gap. Exec returns once one shard applied the last time
// point its rows completed. Recovery is one rule — at first contact, after
// a transport failure, after a refusal: probe Info and resume after
// Batches if the log holds it, else fence the shard, naming both counts.
// Entries every live shard applied are trimmed past Options.LogRetain. A
// shard crash loses nothing acknowledged under SyncAlways; a coordinator
// crash loses the incomplete time point it holds, which is volatile.
//
// Shard health is decided here alone. A shard whose request fails at the
// transport is marked down, reads fail over, and its worker probes Info
// every 100 ms (recoverBackoff); the shard's fclient only retries once, on
// a fresh connection, and keeps no cooldown of its own.
//
// A read crosses the coordinator as the shard's bytes: the owning shard's
// encoded RESULT payload is checked (wire.CheckResult), relayed and cached
// as it arrived, never decoded (AppendQuery). Reads have a statement-keyed
// fast path (cache.go): one table holding each statement's plan and that
// payload, the payload invalidated by the write epoch — hot statements skip
// planning and the shard hop entirely (Options.CacheSize, f2dbd
// -coord-cache-size).
package coord

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cubefc/internal/f2db"
	"cubefc/internal/fclient"
	"cubefc/internal/wire"
)

// ErrClosed is returned by requests on a closed coordinator.
var ErrClosed = errors.New("coord: coordinator closed")

// ErrNoShards is returned when no shard is servable for a query and none
// became servable within queryWait.
var ErrNoShards = errors.New("coord: no servable shard")

// fibMult is the Fibonacci hashing multiplier, 2⁶⁴/φ: consecutive node IDs
// (base series are enumerated contiguously) spread evenly over the shards.
const fibMult = 0x9E3779B97F4A7C15

// ShardFor maps a graph node ID to its owning shard among n: a Fibonacci
// hash with fixed-point scaling of the top hash bits, so n need not be a
// power of two.
func ShardFor(id, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(id) * fibMult
	return int((h >> 32) * uint64(n) >> 32)
}

const (
	// queryWait bounds how long a query waits for some shard to become
	// servable (e.g. mid-batch, when every shard is momentarily applying
	// the log tail).
	queryWait = 5 * time.Second
	// recoverBackoff paces the Info probes to a down shard.
	recoverBackoff = 100 * time.Millisecond
)

// Options tunes a coordinator.
type Options struct {
	// CacheSize enables the read fast path (cache.go): an LRU of this many
	// statements keyed by normalized statement text, each entry holding
	// the statement's plan and the shard's encoded answer, the answer
	// invalidated by write epoch. 0 disables
	// caching entirely — every query pays planning and the shard hop.
	CacheSize int
	// LogRetain bounds the retained log, in time points: entries every
	// non-dead shard applied are trimmed past this replay window (a shard
	// restarting behind the trim horizon is fenced). 0 selects the default
	// 128; negative retains the full log.
	LogRetain int
	// Logf, when non-nil, receives shard lifecycle diagnostics.
	Logf func(format string, args ...any)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.LogRetain == 0 {
		out.LogRetain = 128
	}
	return out
}

// shard is one f2dbd replica and its replay state. All fields except the
// immutable ones are guarded by the coordinator mutex.
type shard struct {
	idx    int
	addr   string
	client *fclient.Client

	// cursor is the absolute index of the next log entry to apply. down
	// marks a shard whose worker is probing for reconnection; dead marks a
	// shard fenced out of the log. refusal is the engine's answer to the
	// entry at cursor, held for the recovery it triggers.
	cursor  int
	down    bool
	dead    bool
	refusal error
}

// Coordinator puts a cluster of f2dbd shards behind the engine's
// Query/Exec surface. It satisfies server.Backend. Every logged time point
// bumps its one write epoch, which stales every cached answer (cache.go).
type Coordinator struct {
	planner *f2db.Planner
	opts    Options
	met     *Metrics

	// epoch is the write epoch: every logged time point bumps it once, in
	// the same c.mu hold as the log append, so it equals logLen(). The read
	// cache serves an answer only while the epoch matches the one it was
	// fetched under (cache.go); cache may be nil (caching disabled).
	epoch atomic.Uint64
	cache *readCache

	// fillMu, taken before c.mu and never after, guards the pending time
	// point and the buffer a completed one is rendered in.
	fillMu  sync.Mutex
	batch   *f2db.Batch
	render  []byte
	inserts atomic.Uint64

	mu   sync.Mutex
	cond *sync.Cond
	// log holds one INSERT per completed time point; entry i completes
	// batch start+i+1, start being unset (started false) until a shard
	// answers. trimBase, the absolute index of log[0], keeps cursors absolute.
	log      []string
	trimBase int
	start    uint64
	started  bool
	shards   []*shard
	closed   bool
	wg       sync.WaitGroup
}

// logLen is the absolute log length (entries ever appended). Callers hold
// c.mu.
func (c *Coordinator) logLen() int { return c.trimBase + len(c.log) }

// New connects to the shards and starts their replay workers. The planner
// must be built over the same hyper graph (and step duration) the shards
// serve — f2db.NewPlanner over the data set's graph, or DB.Planner from a
// loaded snapshot. Each shard's first Info decides its start: one that
// answers is placed at its batch count (the first to answer fixes where the
// log starts), one that does not starts down and is placed by its worker's
// recovery loop.
func New(planner *f2db.Planner, addrs []string, opts Options) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, errors.New("coord: no shard addresses")
	}
	opts = opts.withDefaults()
	c := &Coordinator{
		planner: planner,
		opts:    opts,
		met:     newMetrics(addrs),
		batch:   planner.NewBatch(),
	}
	c.cond = sync.NewCond(&c.mu)
	if opts.CacheSize > 0 {
		c.cache = newReadCache(opts.CacheSize, &c.epoch, c.met)
	}
	for i, addr := range addrs {
		s := &shard{idx: i, addr: addr, client: fclient.NewClient(addr, fclient.Options{})}
		c.shards = append(c.shards, s)
		if info, err := s.client.Info(); err == nil {
			c.placeLocked(s, info)
		} else {
			c.logf("shard %d (%s): unreachable at start: %v", i, addr, err)
			s.down = true
			c.met.ShardsDown.Add(1)
		}
	}
	for _, s := range c.shards {
		c.wg.Add(1)
		go c.runShard(s)
	}
	return c, nil
}

// Close stops the workers and closes every shard client. The pending time
// point is dropped; Exec callers waiting on a logged one receive ErrClosed.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	for _, s := range c.shards {
		_ = s.client.Close() // fails in-flight worker requests, unblocking them
	}
	c.wg.Wait()
	return nil
}

// Metrics returns the coordinator's live counters.
func (c *Coordinator) Metrics() *Metrics { return c.met }

// --- write path ----------------------------------------------------------

// Exec lands the INSERT's rows in the pending time point by the engine's
// rule (a rejection is the engine's, and changes nothing) and logs every
// time point they complete; then it waits until one shard applied the last
// and every other one applied it or is down (it replays on recovery).
func (c *Coordinator) Exec(sql string) error {
	last := -1
	rows, err := c.planner.Fill(c.batch, sql, &c.fillMu, func(column []float64) error {
		c.render = c.planner.AppendTimePoint(c.render[:0], column)
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.closed {
			return ErrClosed
		}
		c.log = append(c.log, string(c.render))
		last = c.logLen() - 1
		// Bumped in the append's lock hold: a query sampling the new epoch
		// goes to a shard caught up with the grown log, so no pre-write
		// answer is served to a query issued after Exec returned.
		c.epoch.Add(1)
		c.met.EpochGlobalBumps.Add(1)
		c.cond.Broadcast()
		return nil
	})
	c.inserts.Add(uint64(rows))
	if err != nil {
		return err
	}
	c.met.Execs.Add(1)
	if last < 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return ErrClosed
		}
		settled := true
		for _, s := range c.shards {
			if s.cursor > last {
				// Other shards keep applying asynchronously (or replay later).
				return nil
			}
			if !s.down && !s.dead {
				settled = false
			}
		}
		if settled {
			// Logged, to apply on recovery, but the caller cannot know when.
			return fmt.Errorf("%w: insert logged but not yet applied", ErrNoShards)
		}
		c.cond.Wait()
	}
}

// runShard is the per-shard worker: it sends log entries in cursor order,
// and after a failure or a refusal places the shard again (recoverShard).
func (c *Coordinator) runShard(s *shard) {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		for !c.closed && !s.down && !s.dead && s.cursor >= c.logLen() {
			c.cond.Wait()
		}
		if c.closed || s.dead {
			c.mu.Unlock()
			return
		}
		if s.down {
			c.mu.Unlock()
			if !c.recoverShard(s) {
				return
			}
			continue
		}
		idx := s.cursor
		sql, batch := c.log[idx-c.trimBase], c.start+uint64(idx)+1
		c.mu.Unlock()

		start := time.Now()
		err := s.client.Apply(batch, sql)
		sm := &c.met.Shards[s.idx]
		sm.Requests.Add(1)
		sm.Latency.Observe(time.Since(start).Nanoseconds())

		c.mu.Lock()
		switch {
		case err == nil:
			s.cursor = idx + 1
			c.maybeTrimLocked()
		case errors.Is(err, fclient.ErrClosed):
			// Shutdown closed the client under us; the loop head exits.
		case refused(err):
			// It holds fewer batches than its cursor says, or cannot take
			// the next.
			s.refusal = err
			c.markDownLocked(s, err)
		default:
			sm.Errors.Add(1)
			c.markDownLocked(s, err)
		}
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

// maybeTrimLocked drops log entries that every shard still participating
// in replay has passed, keeping a LogRetain-entry replay window behind the
// newest write. Trimming advances trimBase instead of renumbering, so
// absolute cursors are untouched; down shards hold the horizon at their
// frozen cursor (they resume from it on recovery), and only dead shards
// are ignored. Callers hold c.mu.
func (c *Coordinator) maybeTrimLocked() {
	if c.opts.LogRetain < 0 {
		return
	}
	trimTo := c.logLen() - c.opts.LogRetain
	for _, s := range c.shards {
		if !s.dead {
			trimTo = min(trimTo, s.cursor)
		}
	}
	if trimTo <= c.trimBase {
		return
	}
	k := trimTo - c.trimBase
	// Drop the statements: the backing array's head is freed when append
	// next reallocates.
	clear(c.log[:k])
	c.log = c.log[k:]
	c.trimBase = trimTo
	c.met.LogTrimmed.Add(int64(k))
}

// refused reports whether a shard's answer is a refusal a retry would
// repeat, not a transport failure or a draining or timed-out server.
func refused(err error) bool {
	var se *wire.ServerError
	if errors.As(err, &se) {
		return se.Code != wire.CodeShutdown && se.Code != wire.CodeTimeout
	}
	return !fclient.IsRetryable(err)
}

// markDownLocked transitions a shard to the down state (idempotent).
// Callers hold c.mu.
func (c *Coordinator) markDownLocked(s *shard, cause error) {
	if !s.down && !s.dead {
		s.down = true
		c.met.ShardsDown.Add(1)
		c.logf("shard %d (%s): down: %v", s.idx, s.addr, cause)
		c.cond.Broadcast()
	}
}

// recoverShard probes a down shard every recoverBackoff until it answers an
// Info, then places it by it (placeLocked). Returns false when the
// coordinator closed or the shard was fenced.
func (c *Coordinator) recoverShard(s *shard) bool {
	for {
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return false
		}
		info, err := s.client.Info()
		if err != nil {
			time.Sleep(recoverBackoff)
			continue
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.closed {
			return false
		}
		ok := c.placeLocked(s, info)
		c.cond.Broadcast()
		return ok
	}
}

// placeLocked is the one recovery rule: the shard resumes at the entry
// completing batch info.Batches+1 if the log holds it, and is fenced
// otherwise — behind the trim horizon, beyond the log, or at the entry it
// just refused. The first shard placed fixes where the log starts. Callers
// hold c.mu (New, before any worker runs, need not).
func (c *Coordinator) placeLocked(s *shard, info wire.Info) bool {
	if !c.started {
		c.start, c.started = info.Batches, true
	}
	have, first, last := info.Batches, c.start+uint64(c.trimBase), c.start+uint64(c.logLen())
	why := ""
	switch {
	case have < first:
		why = fmt.Sprintf("holds batch %d, behind the trim horizon: the log starts after batch %d", have, first)
	case have > last:
		why = fmt.Sprintf("holds batch %d, beyond the log, which ends at batch %d", have, last)
	case s.refusal != nil && int(have-c.start) == s.cursor:
		why = fmt.Sprintf("holds batch %d and refused batch %d: %v", have, have+1, s.refusal)
	}
	s.refusal = nil
	if s.down {
		s.down = false
		c.met.ShardsDown.Add(-1)
	}
	if why != "" {
		s.dead = true
		c.met.ShardsDead.Add(1)
		c.logf("shard %d (%s): %s; fenced", s.idx, s.addr, why)
		return false
	}
	cursor := int(have - c.start)
	if cursor < c.logLen() {
		c.logf("shard %d (%s): holds batch %d, replaying the log from batch %d", s.idx, s.addr, have, have+1)
		c.met.Shards[s.idx].Replays.Add(1)
	}
	s.cursor = cursor
	return true
}

// --- read path -----------------------------------------------------------

// AppendQuery routes a SELECT verbatim to the owner of the first node it
// describes and appends that replica's encoded RESULT payload to dst. The
// replica's executor answers the whole statement — every group of a
// drill-down under one engine lock, so from one time point — and the
// coordinator passes its bytes on unchanged: a front server writes them
// straight into its response frame. Rejections carry the exact engine error
// a single process would produce.
//
// With Options.CacheSize set, hot statements never touch the shards: one
// lookup in the read table (cache.go) yields the plan and, while no
// write intervened, the payload. The uncached path below is kept as
// the reference the twin tests compare the table against.
func (c *Coordinator) AppendQuery(dst []byte, sql string) ([]byte, error) {
	if c.cache == nil {
		plan, err := c.planner.RouteQuery(sql)
		if err != nil {
			return dst, err
		}
		c.met.Queries.Add(1)
		res, err := c.runPlan(plan, sql)
		return append(dst, res...), err
	}
	key := f2db.NormalizeSQL(sql)
	ent, res, hit, err := c.cache.Lookup(key, func(p **f2db.Plan) (err error) {
		*p, err = c.planner.RouteQuery(sql)
		return err
	})
	if err != nil {
		return dst, err
	}
	c.met.Queries.Add(1)
	if !hit {
		res, err = c.cache.Fill(key, ent, func() ([]byte, error) {
			return c.runPlan(ent.Plan, sql)
		})
	}
	return append(dst, res...), err
}

// Query is AppendQuery decoded, for in-process callers: it satisfies
// server.Backend, but a front server uses AppendQuery and never decodes.
func (c *Coordinator) Query(sql string) (*f2db.Result, error) {
	res, err := c.AppendQuery(nil, sql)
	if err != nil {
		return nil, err
	}
	return wire.DecodeResult(res)
}

// runPlan sends a routed statement to its shard: the uncached path, and
// the fetch function behind every table miss.
func (c *Coordinator) runPlan(plan *f2db.Plan, sql string) ([]byte, error) {
	// An EXPLAIN of a drill-down returns no groups and is not counted as one.
	drill := len(plan.Nodes) > 1 && !plan.Explain
	if drill {
		c.met.Fanouts.Add(1)
		c.met.FanoutWidth.Observe(int64(len(plan.Nodes)))
	}
	return c.queryNode(plan.Nodes[0], sql, drill)
}

// queryNode sends one statement to the owner of the node, failing over in
// ring order to the next servable shard. A shard is servable when it is
// up and its replay cursor has caught the log tail — a lagging replica
// would answer from an older time point. If no shard is servable the call
// waits (bounded by queryWait) for one to catch up, which bridges the
// moment when all replicas are mid-apply. drill marks a drill-down
// statement, whose shard requests (failover retries included) are counted.
func (c *Coordinator) queryNode(node int, sql string, drill bool) ([]byte, error) {
	owner := ShardFor(node, len(c.shards))
	deadline := time.Now().Add(queryWait)
	for {
		var lastErr error
		tried := false
		for trial := 0; trial < len(c.shards); trial++ {
			s := c.shards[(owner+trial)%len(c.shards)]
			if !c.servable(s) {
				continue
			}
			if trial > 0 {
				c.met.Failovers.Add(1)
			}
			tried = true
			sm := &c.met.Shards[s.idx]
			start := time.Now()
			res, err := s.client.QueryRaw(sql)
			sm.Requests.Add(1)
			sm.Latency.Observe(time.Since(start).Nanoseconds())
			if drill {
				c.met.FanoutSubqueries.Add(1)
			}
			if err == nil {
				return res, nil
			}
			if refused(err) {
				// Replicas agree on a rejection and on a malformed answer.
				return nil, err
			}
			sm.Errors.Add(1)
			c.mu.Lock()
			c.markDownLocked(s, err)
			c.mu.Unlock()
			lastErr = err
		}
		if time.Now().After(deadline) {
			if lastErr != nil {
				return nil, fmt.Errorf("%w: node %d (%s): %v", ErrNoShards, node, c.planner.NodeKey(node), lastErr)
			}
			return nil, fmt.Errorf("%w: node %d (%s)", ErrNoShards, node, c.planner.NodeKey(node))
		}
		if !tried {
			// Nothing servable right now (replicas lagging or recovering):
			// wait for a worker to make progress rather than spinning.
			c.waitProgress()
		}
	}
}

// waitProgress blocks briefly until some shard state changes (bounded so a
// wedged cluster cannot hang queries past queryWait checks).
func (c *Coordinator) waitProgress() {
	done := make(chan struct{})
	go func() {
		c.mu.Lock()
		c.cond.Wait()
		c.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(50 * time.Millisecond):
		// The cond.Wait goroutine stays parked until the next broadcast;
		// wake it so it does not accumulate.
		c.cond.Broadcast()
		<-done
	}
}

// servable reports whether a shard can answer queries at the current time
// point: up, not fenced, and caught up with the log.
func (c *Coordinator) servable(s *shard) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !s.down && !s.dead && s.cursor == c.logLen()
}

// CaughtUp reports whether every live shard has applied the entire
// log (tests and operators poll it after recovery).
func (c *Coordinator) CaughtUp() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.shards {
		if s.dead {
			continue
		}
		if s.down || s.cursor != c.logLen() {
			return false
		}
	}
	return true
}

// --- Backend surface -----------------------------------------------------

// StatsText renders the cluster for TStats requests: the state lines,
// read under c.mu, then the counters from the registry.
func (c *Coordinator) StatsText() string {
	c.mu.Lock()
	var b bytes.Buffer
	servable := 0
	for _, s := range c.shards {
		if !s.down && !s.dead && s.cursor == c.logLen() {
			servable++
		}
	}
	fmt.Fprintf(&b, "coordinator shards=%d servable=%d log=%d retained=%d trimmed=%d\n",
		len(c.shards), servable, c.logLen(), len(c.log), c.trimBase)
	if c.cache != nil {
		fmt.Fprintf(&b, "cache: size=%d epoch=%d\n", c.cache.Len(), c.epoch.Load())
	}
	for _, s := range c.shards {
		state := "up"
		switch {
		case s.dead:
			state = "dead"
		case s.down:
			state = "down"
		case s.cursor < c.logLen():
			state = "lagging"
		}
		fmt.Fprintf(&b, "shard %d addr=%s state=%s cursor=%d/%d\n", s.idx, s.addr, state, s.cursor, c.logLen())
	}
	c.mu.Unlock()
	c.met.Registry().WriteStats(&b)
	return b.String()
}

// Counts reports the coordinator's progress for TInfo: the rows it has
// accepted, pending ones included, and the batch count its log reaches,
// whether or not every shard has applied it yet.
func (c *Coordinator) Counts() (inserts, batches uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inserts.Load(), c.start + uint64(c.logLen())
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}
