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
// Writes and recovery. Every INSERT is appended to an ordered statement
// log; one worker per shard applies the log strictly in order over its
// fclient. Exec returns once at least one shard applied the statement
// (and every other shard either applied it or is marked down); a shard
// that drops mid-stream keeps its cursor and replays the tail on
// reconnect. A restarted shard is detected by the server's start nonce
// (wire.TInfo) and realigned: its engine rebuilt from the snapshot reports
// how many rows it has applied (snapshots persist the counter), and the
// cursor resumes at the matching statement boundary, replaying only the
// tail — deterministic, so the replica converges to the exact same state
// unless a statement every replica rejected shifted the boundaries
// (realignLocked).
// The log is bounded: entries applied by every participating shard are
// trimmed past a retention window (Options.LogRetain), and a restart
// whose applied count falls behind the trim horizon is fenced dead.
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
	// the statement log tail).
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
	// LogRetain bounds the retained statement log: entries applied by
	// every non-dead shard are trimmed once more than LogRetain of them
	// are retained, keeping a realignment window for restarting shards
	// behind the newest writes. A shard that restarts with an applied-row
	// count older than the trim horizon is fenced (marked dead). 0 selects
	// the default 4096; negative retains the full log (no trimming).
	// Entries a down-but-not-dead shard still needs are never trimmed.
	LogRetain int
	// Logf, when non-nil, receives shard lifecycle diagnostics.
	Logf func(format string, args ...any)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.LogRetain == 0 {
		out.LogRetain = 4096
	}
	return out
}

// logEntry is one INSERT statement in the coordinator's ordered log.
type logEntry struct {
	sql string
	// rows is the statement's row count; cumRows the running total through
	// this entry. Cursor realignment matches a restarted engine's applied
	// row counter against these statement boundaries.
	rows    int
	cumRows uint64
	// applied counts shards that accepted the entry; serverErr records the
	// first engine rejection seen by a shard that was current (replicas
	// are deterministic, so one rejection speaks for all).
	applied   int
	serverErr error
}

// logChunk is how many log entries one allocation holds.
const logChunk = 64

// shard is one f2dbd replica and its replay state. All fields except the
// immutable ones are guarded by the coordinator mutex.
type shard struct {
	idx    int
	addr   string
	client *fclient.Client

	// cursor is the index of the next log entry to apply. down marks a
	// shard whose worker is probing for reconnection; dead marks a shard
	// abandoned after an unalignable restart. nonce is the server process
	// identity from its last Info.
	cursor int
	down   bool
	dead   bool
	nonce  uint64
}

// Coordinator puts a cluster of f2dbd shards behind the engine's
// Query/Exec surface. It satisfies server.Backend. Every logged INSERT
// bumps its one write epoch, which stales every cached answer (cache.go).
type Coordinator struct {
	planner *f2db.Planner
	opts    Options
	met     *Metrics

	// epoch is the write epoch: every logged Exec bumps it once, in the
	// same c.mu hold as the log append, so it equals logLen(). The read
	// cache serves an answer only while the epoch matches the one it was
	// fetched under (cache.go); cache may be nil (caching disabled).
	epoch atomic.Uint64
	cache *readCache

	mu   sync.Mutex
	cond *sync.Cond
	log  []*logEntry
	// chunk is the unused rest of the newest allocation of logChunk entries,
	// which Exec carves log entries from.
	chunk []logEntry
	// trimBase is the absolute index of log[0]: trimmed entries advance
	// it instead of renumbering, so shard cursors and Exec bookkeeping
	// stay absolute. trimRows is the cumulative row count through the
	// last trimmed entry — the trim horizon a restarting shard's applied
	// count is fenced against.
	trimBase int
	trimRows uint64
	shards   []*shard
	closed   bool
	wg       sync.WaitGroup
}

// logLen is the absolute log length (entries ever appended). Callers hold
// c.mu.
func (c *Coordinator) logLen() int { return c.trimBase + len(c.log) }

// entry returns the log entry at absolute index i. Callers hold c.mu and
// guarantee trimBase <= i < logLen().
func (c *Coordinator) entry(i int) *logEntry { return c.log[i-c.trimBase] }

// New connects to the shards and starts their replay workers. The planner
// must be built over the same hyper graph (and step duration) the shards
// serve — f2db.NewPlanner over the data set's graph, or DB.Planner from a
// loaded snapshot. Each shard's first Info decides its start: one that
// answers is up at cursor 0 with its nonce recorded; one that does not
// starts down and is picked up by its worker's recovery loop.
func New(planner *f2db.Planner, addrs []string, opts Options) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, errors.New("coord: no shard addresses")
	}
	opts = opts.withDefaults()
	c := &Coordinator{
		planner: planner,
		opts:    opts,
		met:     newMetrics(addrs),
	}
	c.cond = sync.NewCond(&c.mu)
	if opts.CacheSize > 0 {
		c.cache = newReadCache(opts.CacheSize, &c.epoch, c.met)
	}
	for i, addr := range addrs {
		s := &shard{idx: i, addr: addr, client: fclient.NewClient(addr, fclient.Options{})}
		if info, err := s.client.Info(); err == nil {
			s.nonce = info.Nonce
		} else {
			c.logf("shard %d (%s): unreachable at start: %v", i, addr, err)
			s.down = true
			c.met.ShardsDown.Add(1)
		}
		c.shards = append(c.shards, s)
	}
	for _, s := range c.shards {
		c.wg.Add(1)
		go c.runShard(s)
	}
	return c, nil
}

// Close stops the workers and closes every shard client. Pending log
// entries are dropped; Exec callers waiting on them receive ErrClosed.
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

// Exec appends the INSERT to the statement log and waits until at least
// one shard applied it and every other shard either applied it or is
// down/dead (those replay it on recovery). An engine rejection from a
// current shard is authoritative (replicas are deterministic) and is
// returned as-is.
func (c *Coordinator) Exec(sql string) error {
	rows, err := c.planner.RouteExecNodes(sql)
	if err != nil {
		// Same resolution code as the shard engines: the rejection text
		// matches what any shard would answer, and a statement the engines
		// would reject never reaches the log (so the logged row counts the
		// realignment protocol fences against stay exact).
		return err
	}
	c.met.Execs.Add(1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	prev := c.trimRows
	if n := len(c.log); n > 0 {
		prev = c.log[n-1].cumRows
	}
	if len(c.chunk) == 0 {
		c.chunk = make([]logEntry, logChunk)
	}
	e := &c.chunk[0]
	c.chunk = c.chunk[1:]
	*e = logEntry{sql: sql, rows: rows, cumRows: prev + uint64(rows)}
	idx := c.logLen()
	c.log = append(c.log, e)
	// Bump the write epoch under the same lock hold as the append: any
	// query that samples the new epoch goes to a shard (queryNode only
	// accepts one caught up with the grown log), so no cached pre-write answer
	// can be served to a caller that issued its query after Exec returned.
	c.epoch.Add(1)
	c.met.EpochGlobalBumps.Add(1)
	c.cond.Broadcast()
	for {
		if c.closed {
			c.mu.Unlock()
			return ErrClosed
		}
		if e.applied > 0 {
			// Other shards keep applying asynchronously (or replay later).
			c.mu.Unlock()
			return nil
		}
		settled := true
		for _, s := range c.shards {
			if !s.down && !s.dead && s.cursor <= idx {
				settled = false
				break
			}
		}
		if settled {
			err := e.serverErr
			c.mu.Unlock()
			if err != nil {
				return err
			}
			// Every shard is down and none processed the entry; it stays
			// logged and will apply on recovery, but the caller cannot know
			// when.
			return fmt.Errorf("%w: insert logged but not yet applied", ErrNoShards)
		}
		c.cond.Wait()
	}
}

// runShard is the per-shard worker: it applies log entries strictly in
// cursor order, and on transport failure probes the shard's Info until it
// answers, realigning the cursor if the process restarted.
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
		e := c.entry(idx)
		c.mu.Unlock()

		start := time.Now()
		err := s.client.Exec(e.sql)
		sm := &c.met.Shards[s.idx]
		sm.Requests.Add(1)
		sm.Latency.Observe(time.Since(start).Nanoseconds())

		c.mu.Lock()
		switch {
		case err == nil:
			s.cursor = idx + 1
			e.applied++
			c.maybeTrimLocked()
		case errors.Is(err, fclient.ErrClosed):
			// Coordinator shutdown closed the client under us; the loop head
			// exits on the closed flag after the broadcast below.
			c.markDownLocked(s, err)
		case !fclient.IsRetryable(err):
			// The engine processed and rejected the statement. If no
			// replica accepted it this is the authoritative outcome; if one
			// did, this shard is replaying a statement it had already
			// applied before an ambiguous failure, and the rejection just
			// confirms the earlier apply.
			s.cursor = idx + 1
			if e.applied == 0 && e.serverErr == nil {
				e.serverErr = err
			} else {
				sm.ReplayRejects.Add(1)
			}
			c.maybeTrimLocked()
		default:
			sm.Errors.Add(1)
			c.markDownLocked(s, err)
		}
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

// maybeTrimLocked drops log entries that every shard still participating
// in replay has passed, keeping a LogRetain-entry realignment window
// behind the newest write. Trimming advances trimBase/trimRows instead of
// renumbering, so absolute cursors and cumRows boundaries are untouched;
// down shards hold the horizon at their frozen cursor (they resume from
// it on recovery), and only dead shards are ignored. Callers hold c.mu.
func (c *Coordinator) maybeTrimLocked() {
	if c.opts.LogRetain < 0 {
		return
	}
	trimTo := c.logLen() - c.opts.LogRetain
	for _, s := range c.shards {
		if s.dead {
			continue
		}
		if s.cursor < trimTo {
			trimTo = s.cursor
		}
	}
	if trimTo <= c.trimBase {
		return
	}
	k := trimTo - c.trimBase
	c.trimRows = c.log[k-1].cumRows
	// Drop the statements (a waiting Exec reads only applied and serverErr)
	// and nil the slots: a chunk is freed once trimming has passed all of
	// it, the head of the backing array when append next reallocates.
	for i := 0; i < k; i++ {
		c.log[i].sql = ""
		c.log[i] = nil
	}
	c.log = c.log[k:]
	c.trimBase = trimTo
	c.met.LogTrimmed.Add(int64(k))
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
// Info, then brings it back: same nonce → the process (and its engine
// state) survived, the cursor stands; no recorded nonce → first contact
// with a shard that was down at New, accepted at its cursor exactly as New
// accepts a reachable one (the trim horizon was held there, so the log
// still starts at it); new nonce → the process restarted from the
// snapshot, so the cursor realigns to the statement boundary matching the
// engine's applied-row counter. Returns false when the coordinator closed
// or the shard was abandoned.
func (c *Coordinator) recoverShard(s *shard) bool {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return false
		}
		c.mu.Unlock()
		info, err := s.client.Info()
		if err != nil {
			time.Sleep(recoverBackoff)
			continue
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return false
		}
		if s.nonce == 0 || info.Nonce == s.nonce {
			// First contact, or the same process after a network blip. The
			// in-doubt statement (if any) is re-sent from the unchanged
			// cursor; a duplicate rejection is absorbed as a replay
			// confirmation.
			s.nonce = info.Nonce
			s.down = false
		} else {
			cursor, ok := c.realignLocked(info.Inserts)
			if !ok {
				s.dead = true
				c.met.ShardsDead.Add(1)
				c.met.ShardsDown.Add(-1) // dead, no longer reconnecting
				if info.Inserts < c.trimRows {
					// Fenced: the entries this shard would need to replay
					// were trimmed. It cannot converge by log replay alone
					// (snapshot shipping is the documented extension).
					c.logf("shard %d (%s): restarted with insert count %d behind the trim horizon (%d rows trimmed); fenced",
						s.idx, s.addr, info.Inserts, c.trimRows)
				} else {
					c.logf("shard %d (%s): restarted with unalignable insert count %d; abandoned",
						s.idx, s.addr, info.Inserts)
				}
				c.cond.Broadcast()
				c.mu.Unlock()
				return false
			}
			c.logf("shard %d (%s): restarted (nonce %x→%x), replaying log from entry %d",
				s.idx, s.addr, s.nonce, info.Nonce, cursor)
			c.met.Shards[s.idx].Replays.Add(1)
			s.cursor = cursor
			s.nonce = info.Nonce
			s.down = false
		}
		c.met.ShardsDown.Add(-1)
		c.cond.Broadcast()
		c.mu.Unlock()
		return true
	}
}

// realignLocked maps an engine's applied-row counter to the absolute log
// index of the next statement to apply. Snapshots persist the counter, so
// a shard restarted from a mid-history snapshot reports exactly the rows
// its image contains and lands on the matching statement boundary. Counts
// that fall inside a statement, beyond the log, or behind the trim horizon
// (the entries it would need are gone) are unalignable. The boundaries are
// only as exact as cumRows, and cumRows also counts the rows of statements
// every replica rejected at apply time (a row already pending from an
// earlier statement passes the planner). After such a rejection an
// engine's count can equal an earlier boundary: the cursor then realigns a
// statement early and replays one the image already holds, which the
// engine may accept into its next batch (ROADMAP item 5). Callers hold c.mu.
func (c *Coordinator) realignLocked(inserts uint64) (int, bool) {
	// Valid boundaries are the trim horizon itself and each retained
	// entry's cumRows; with an untrimmed log the horizon is 0 rows at
	// entry 0, i.e. a fresh restart replaying everything.
	if inserts == c.trimRows {
		return c.trimBase, true
	}
	if inserts < c.trimRows {
		return 0, false
	}
	for i, e := range c.log {
		if e.cumRows == inserts {
			return c.trimBase + i + 1, true
		}
		if e.cumRows > inserts {
			return 0, false
		}
	}
	return 0, false
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
			if !fclient.IsRetryable(err) {
				// The engine processed and rejected it; replicas agree.
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
// point: up, not abandoned, and caught up with the statement log.
func (c *Coordinator) servable(s *shard) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !s.down && !s.dead && s.cursor == c.logLen()
}

// CaughtUp reports whether every live shard has applied the entire
// statement log (tests and operators poll it after recovery).
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

// Counts reports the coordinator's progress for TInfo: the cumulative row
// count of the last appended log entry (rows logged, whether or not every
// shard has applied them yet), and 0 batches (batch accounting lives in the
// shard engines).
func (c *Coordinator) Counts() (inserts, batches uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.log); n > 0 {
		return c.log[n-1].cumRows, 0
	}
	return c.trimRows, 0
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}
