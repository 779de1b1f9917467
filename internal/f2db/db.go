// Package f2db is an embedded reimplementation of the paper's F²DB
// (flash-forward database) prototype, Section V: it stores a model
// configuration in relational-style system tables, processes forecast
// queries against it ("SELECT … AS OF now() + '1 day'") without touching
// base data, and maintains the models incrementally as new time-series
// values are inserted. Where the original extends PostgreSQL, this engine
// is self-contained and stdlib-only; the component structure of Figure 6
// (configuration storage, forecast query processor, maintenance processor)
// is preserved.
//
// Concurrency model: the engine distinguishes readers from maintenance.
// Forecast queries (Query, ForecastNode, Health, Stats, Explain) take
// shared read access and run concurrently on all cores. The write path is
// striped (stripe.go): base series are partitioned by node-ID hash into
// power-of-two stripes, each owning its slice of the pending insert batch
// behind its own mutex, so parallel insert streams only contend when they
// hit the same stripe. Every state change — the batch time advance, a model
// re-fit, a checkpoint or compaction, replay — holds the maintenance lock,
// so while it is held no series or model changes. The exclusive engine
// lock covers only the in-memory apply (advancing the batch, installing
// fitted models, resolving a scheme); the WAL fsync, compaction and every
// model fit run under the maintenance lock alone while readers keep
// answering from the previous state. The one crossing point between
// readers and maintenance is lazy re-estimation (Section V delays parameter
// re-estimation until a query references the model): a query that hits an
// invalidated model drops its shared lock, takes the maintenance lock,
// re-fits what it needs and answers before releasing it. Lock ownership on
// the write side is witnessed by a guard value produced only by the acquire
// helpers, so exclusive-only paths assert their lock instead of trusting a
// convention. Engine counters are atomics (see metrics.go), so observing
// the engine never blocks it.
package f2db

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/derivation"
	"cubefc/internal/forecast"
	"cubefc/internal/lru"
	"cubefc/internal/optimize"
	"cubefc/internal/timeseries"
)

// InvalidationStrategy decides when a model's parameters must be
// re-estimated during maintenance (Section V: "based on a time- or
// threshold-based strategy").
type InvalidationStrategy interface {
	// Invalidate reports whether the model at the node needs parameter
	// re-estimation given its maintenance statistics.
	Invalidate(stats ModelStats) bool
}

// ModelStats carries per-model maintenance statistics for invalidation
// decisions.
type ModelStats struct {
	// UpdatesSinceFit counts state updates since the last (re-)fit.
	UpdatesSinceFit int
	// RollingError is an exponentially smoothed one-step-ahead SMAPE of
	// the model observed during maintenance. As in eq. 4, a step whose
	// actual and forecast are both 0 is exact and counts 0; a step whose
	// SMAPE is undefined (NaN) leaves it unchanged.
	RollingError float64
}

// TimeBased invalidates a model after every N state updates.
type TimeBased struct{ Every int }

// Invalidate implements InvalidationStrategy.
func (t TimeBased) Invalidate(s ModelStats) bool {
	return t.Every > 0 && s.UpdatesSinceFit >= t.Every
}

// ThresholdBased invalidates a model once its rolling one-step error
// exceeds MaxError.
type ThresholdBased struct{ MaxError float64 }

// Invalidate implements InvalidationStrategy.
func (t ThresholdBased) Invalidate(s ModelStats) bool {
	return t.MaxError > 0 && s.RollingError > t.MaxError
}

// Never keeps models valid forever (state updates only).
type Never struct{}

// Invalidate implements InvalidationStrategy.
func (Never) Invalidate(ModelStats) bool { return false }

// Stats aggregates engine counters. It is kept for compatibility with the
// workload/experiment harnesses; Metrics exposes the richer surface
// (per-kind scheme hits, latency histogram).
type Stats struct {
	Queries        int
	Inserts        int
	Batches        int // completed maintenance batches (time advances)
	Reestimations  int
	QueryTime      time.Duration
	MaintainTime   time.Duration
	PendingInserts int
}

// schemeState tracks the running history sums behind a derivation weight so
// the weight can be maintained incrementally (Section V); a scheme backfilled
// after Open is not tracked and keeps the weight it was derived with.
type schemeState struct {
	hTarget  float64
	hSources float64
	tracked  bool
}

// DB is the embedded F²DB engine.
type DB struct {
	// maint serializes every state change: the batch advance (with its WAL
	// append and fsync), every model re-fit, the durability layer's
	// checkpoint, compaction and close, and replay. Lock order: maint before
	// mu before any stripe mutex.
	maint sync.Mutex
	// mu separates shared readers (forecast queries, health and stats
	// snapshots) from the exclusive in-memory apply of a state change, which
	// always runs under maint too. Acquire it through rLock/wLock so lock
	// ownership is witnessed by a guard (see below).
	mu sync.RWMutex
	// writeHeld is set while some goroutine holds mu exclusively; it backs
	// assertExclusive, the runtime check that write-only paths really run
	// under the write lock.
	writeHeld atomic.Bool

	graph *cube.Graph
	cfg   *core.Configuration

	// planner is the statement resolver over graph (route.go). It carries
	// the step duration — the real-time span of one series step, which
	// translates "AS OF now() + '1 day'" into a forecast horizon.
	planner *Planner

	strategy InvalidationStrategy
	invalid  map[int]bool
	mstats   map[int]*ModelStats
	schemes  []schemeState // by node ID
	// step1 receives each model's one-step forecast in advanceBatch, under
	// the write lock: a stack array would escape through the interface call.
	step1 [1]float64

	// pending is the insert batch being collected, as the dense column it
	// becomes: pending[i] is the next observation of base node
	// graph.BaseIDs[i], held once present[i] is set. stripes shard the
	// column by base-node hash (see stripe.go): a slot is read and written
	// only under its base node's stripe mutex, so parallel insert streams do
	// not contend until a batch completes. Time advances only once every
	// base series has a value for the next time stamp; the advance is a
	// cross-stripe barrier under maint and hands the column
	// on as it stands — a complete batch is frozen (every insert is a
	// duplicate until the advance clears the marks), so nothing is copied.
	// Lock order: maint, then mu, then stripes in index order.
	pending     []float64
	present     []bool
	stripes     []writeStripe
	stripeShift uint
	// pendingTotal counts the slots that hold a value; the batch is
	// complete exactly when it reaches len(graph.BaseIDs). It is a
	// completion hint — the authoritative check runs under maint in
	// advanceIfComplete.
	pendingTotal atomic.Int64
	// advanceGen increments (under mu) every time a complete batch is
	// applied and the column released. Inserters that hit a duplicate
	// use it to distinguish "my value is a genuine duplicate in the
	// current batch" from "the batch holding the duplicate just advanced;
	// retry against the fresh one".
	advanceGen atomic.Uint64

	// baseCounts holds the number of base series per node (AVG queries),
	// precomputed at Open so the read path never mutates shared state.
	baseCounts []int

	// plans is the LRU of resolved SQL plans keyed by NormalizeSQL text
	// (nil when disabled), guarded by planMu; the stored plans are
	// immutable, so a hit may be handed to any number of concurrent
	// readers. fc is the epoch-guarded forecast memo table (nil when
	// disabled, see fccache.go).
	planMu sync.Mutex
	plans  *lru.Cache[string, *Plan]
	fc     *fcCache
	// deps lists, per model node, the targets whose derivation scheme
	// reads that model (excluding the node itself): re-estimating the
	// model invalidates exactly these nodes' memoized forecasts.
	deps map[int][]int

	met engineMetrics

	// tele, when non-nil, is the workload telemetry sink (selftune.go):
	// Query reports each statement's normalized template to it. An atomic
	// pointer so the hook costs one load on the hot path when disabled and
	// can be attached/detached on a live engine.
	tele atomic.Pointer[teleBox]

	// commitHook, when non-nil, is the group-commit gate: advanceIfComplete
	// calls it under maint, without mu, with the complete batch — the pending
	// column, to be read and not retained — and the generation it creates
	// (the observation index it will occupy), BEFORE the batch is applied
	// and the column released. The durability layer (durable.go) installs
	// the WAL append here; an error refuses the advance with the column
	// untouched, so the engine stays consistent and a later insert retries
	// the commit. Installed once before any concurrency (OpenDurable) —
	// never mutated on a live engine.
	commitHook func(gen uint64, column []float64) error

	// testHookAfterSweep, when non-nil, runs inside advanceIfComplete after
	// the presence marks are cleared but before the pending counter is
	// rebalanced — the window in which a lock-free insert can race an
	// in-flight advance. Tests use it to land a racing insert
	// deterministically; always nil in production.
	testHookAfterSweep func()
}

// Options configures Open.
type Options struct {
	// StepDuration translates query horizons; default 24h (daily data).
	StepDuration time.Duration
	// Strategy is the model invalidation strategy; default Never.
	Strategy InvalidationStrategy
	// PlanCacheSize bounds the LRU of parsed-and-resolved SQL query plans.
	// 0 selects the default (256); a negative value disables plan caching.
	PlanCacheSize int
	// ForecastCacheSize bounds the epoch-invalidated forecast memo table.
	// 0 selects the default (4096); a negative value disables memoization.
	ForecastCacheSize int
	// Stripes is the number of write stripes sharding the pending insert
	// batch and the forecast memo table. 0 picks a power of two near
	// GOMAXPROCS; other values are rounded up to the next power of two
	// (capped at 256).
	Stripes int
}

// Default cache capacities applied by Open when the option is zero.
const (
	defaultPlanCacheSize     = 256
	defaultForecastCacheSize = 4096
)

// Open creates an engine over the graph and loads the model configuration
// produced by the advisor (or one of the baselines). Those models were fitted
// on values[:cfg.TrainLen], so Open catches each one up, in place, by
// Update-ing it over the rest of its series: forecasts start after the
// newest value. Maintenance statistics start at zero all the same. An open
// engine's models are current: reopen them with LoadDatabase, which does not
// catch up again.
func Open(g *cube.Graph, cfg *core.Configuration, opts Options) (*DB, error) {
	if cfg.TrainLen > g.Length {
		return nil, fmt.Errorf("f2db: configuration trained on %d points, the graph holds %d", cfg.TrainLen, g.Length)
	}
	db, err := open(g, cfg, opts)
	if err != nil {
		return nil, err
	}
	for id, m := range cfg.Models {
		for _, v := range g.History(id)[cfg.TrainLen:] {
			m.Update(v)
		}
	}
	return db, nil
}

// open is Open without the catch-up, for models that are already current.
func open(g *cube.Graph, cfg *core.Configuration, opts Options) (*DB, error) {
	if cfg.Graph != g {
		return nil, fmt.Errorf("f2db: configuration belongs to a different graph")
	}
	if opts.Strategy == nil {
		opts.Strategy = Never{}
	}
	nstripes := resolveStripeCount(opts.Stripes)
	db := &DB{
		graph:       g,
		cfg:         cfg,
		planner:     NewPlanner(g, opts.StepDuration),
		strategy:    opts.Strategy,
		invalid:     make(map[int]bool),
		mstats:      make(map[int]*ModelStats),
		schemes:     make([]schemeState, g.NumNodes()),
		pending:     make([]float64, len(g.BaseIDs)),
		present:     make([]bool, len(g.BaseIDs)),
		stripes:     make([]writeStripe, nstripes),
		stripeShift: stripeShiftFor(nstripes),
	}
	for _, id := range g.BaseIDs {
		db.stripeFor(id).bases++
	}
	for id := range cfg.Models {
		db.mstats[id] = &ModelStats{}
	}
	// Initialize incremental weight states from the full history, summed
	// time point by time point in the order advanceBatch adds each new one,
	// so an engine opened on a longer history holds bit for bit the sums of
	// one advanced to it. Sources carry models, so their histories are few.
	hist := make(map[int][]float64)
	for id, sc := range cfg.Schemes {
		st := &db.schemes[id]
		st.hTarget, st.tracked = g.HistorySum(id), true
		for _, s := range sc.Sources {
			if hist[s] == nil {
				hist[s] = g.History(s)
			}
		}
		for t := 0; t < g.Length; t++ {
			for _, s := range sc.Sources {
				st.hSources += hist[s][t]
			}
		}
	}
	// Per-node base-series counts (AVG scaling), precomputed so the read
	// path never mutates shared state.
	db.baseCounts = make([]int, g.NumNodes())
	for id := range db.baseCounts {
		db.baseCounts[id] = max(g.CoveredBaseCount(id), 1)
	}
	if opts.PlanCacheSize >= 0 {
		size := opts.PlanCacheSize
		if size == 0 {
			size = defaultPlanCacheSize
		}
		db.plans = lru.New[string, *Plan](size)
	}
	if opts.ForecastCacheSize >= 0 {
		size := opts.ForecastCacheSize
		if size == 0 {
			size = defaultForecastCacheSize
		}
		db.fc = newFcCache(g.NumNodes(), size, nstripes)
		// Invert the scheme table: deps[s] = targets deriving from model
		// s, so a re-estimation of s invalidates exactly those epochs.
		db.deps = make(map[int][]int, len(cfg.Models))
		for t, sc := range cfg.Schemes {
			for _, s := range sc.Sources {
				if s != t {
					db.deps[s] = append(db.deps[s], t)
				}
			}
		}
	}
	return db, nil
}

// Stats returns a snapshot of the engine counters. It is lock-free.
func (db *DB) Stats() Stats {
	pending := int(db.pendingTotal.Load())
	return Stats{
		Queries:        int(db.met.queries.Load()),
		Inserts:        int(db.met.inserts.Load()),
		Batches:        int(db.met.batches.Load()),
		Reestimations:  int(db.met.reestimations.Load()),
		QueryTime:      time.Duration(db.met.queryNanos.Load()),
		MaintainTime:   time.Duration(db.met.maintainNanos.Load()),
		PendingInserts: pending,
	}
}

// errNeedsReestimate signals that a forecast under shared (read) access hit
// a model awaiting re-estimation or a node without a scheme; the caller
// re-fits or resolves under maint and retries once (refitFor). It never
// escapes the package API.
var errNeedsReestimate = errors.New("f2db: model awaits re-estimation")

// guard witnesses ownership of the engine lock. It can only be produced by
// rLock/wLock, so a function taking a guard provably runs under the lock,
// and one requiring exclusivity can assert it instead of trusting a bool
// threaded by convention — the stripe refactor must not be able to
// double-lock or race silently. The read path takes rLock and passes no
// guard on: under the shared lock it never writes.
type guard struct{ exclusive bool }

// rLock takes the shared engine lock and returns its witness.
func (db *DB) rLock() guard {
	db.mu.RLock()
	return guard{}
}

// wLock takes the exclusive engine lock and returns its witness.
func (db *DB) wLock() guard {
	db.mu.Lock()
	db.writeHeld.Store(true)
	return guard{exclusive: true}
}

// unlock releases the lock a guard witnesses.
func (db *DB) unlock(g guard) {
	if g.exclusive {
		db.writeHeld.Store(false)
		db.mu.Unlock()
		return
	}
	db.mu.RUnlock()
}

// assertExclusive panics unless the guard witnesses the write lock and the
// write lock is actually held. Write-only paths (installModel, advanceBatch)
// call it so a future refactor that drops the lock fails loudly instead of
// racing.
func (db *DB) assertExclusive(g guard) {
	if !g.exclusive || !db.writeHeld.Load() {
		panic("f2db: internal error: write path entered without the exclusive engine lock")
	}
}

// ForecastNode answers a forecast for the node over horizon h steps using
// the stored scheme and live model states, re-estimating invalid models
// lazily (Section V: "we reduce maintenance overhead by delaying parameter
// reestimation until the model is actually referenced by a query"). It runs
// under the shared read lock; only a query that actually needs a
// re-estimation takes the maintenance lock (refitFor). The returned slice
// is the caller's own: the memo table's copy is cloned here, at the package
// boundary.
func (db *DB) ForecastNode(nodeID, h int) ([]float64, error) {
	g := db.rLock()
	fc, _, _, err := db.forecastIntervalLocked(nodeID, h, 0, false)
	db.unlock(g)
	if err == errNeedsReestimate {
		db.maint.Lock()
		defer db.maint.Unlock()
		if err := db.refitFor([]int{nodeID}); err != nil {
			return nil, err
		}
		g = db.rLock()
		fc, _, _, err = db.forecastIntervalLocked(nodeID, h, 0, true)
		db.unlock(g)
	}
	return append([]float64(nil), fc...), err
}

// forecastIntervalLocked answers a node forecast (with interval bounds when
// conf > 0) through the memo table: a hit returns the cached slices without
// touching any model; a miss derives the forecast and hands it to the memo
// table under the node's current epoch. Either way the slices are shared
// with later hits and must not be written. Metrics (query count, latency,
// scheme hits, cache counters) are recorded here so hits and misses are
// accounted uniformly. The caller holds the shared lock. A source model
// awaiting re-estimation (or a node without a scheme) reports
// errNeedsReestimate, metered as a cache bypass — the query bypasses the
// memo table to take the lazy re-estimation path — and not a miss; the
// retry after refitFor passes retry, so its recomputation continues that
// bypass instead of counting a miss.
func (db *DB) forecastIntervalLocked(nodeID, h int, conf float64, retry bool) (point, lo, hi []float64, err error) {
	start := time.Now()
	defer func() {
		if err == errNeedsReestimate {
			return // retried after refitFor; that attempt is counted
		}
		db.met.recordQuery(time.Since(start))
		if err == nil {
			if sc, ok := db.cfg.Schemes[nodeID]; ok {
				db.met.recordSchemeHit(sc.Kind)
			}
		}
	}()
	key := fcKey{node: nodeID, h: h, conf: conf}
	if db.fc != nil {
		if p, l, u, ok := db.fc.get(key); ok {
			db.met.fcHits.Add(1)
			return p, l, u, nil
		}
	}
	point, lo, hi, err = db.deriveInterval(nodeID, h, conf)
	if err == errNeedsReestimate {
		if db.fc != nil {
			db.met.fcBypasses.Add(1)
		}
		return nil, nil, nil, err
	}
	if err != nil {
		return nil, nil, nil, err
	}
	if db.fc != nil {
		if !retry {
			db.met.fcMisses.Add(1)
		}
		if ev := db.fc.put(key, point, lo, hi); ev > 0 {
			db.met.fcEvictions.Add(ev)
		}
	}
	return point, lo, hi, nil
}

// deriveInterval derives the point forecast of a node from live model state
// and, when conf > 0 (a percentage, e.g. 95), lower/upper prediction-
// interval bounds. Locking contract as forecastIntervalLocked; no metrics,
// no memoization. The returned slices and the source forecasts are carved
// from one fresh allocation the caller owns. The interval assumes
// independent, normally distributed residuals at the scheme's sources; each
// source contributes its one-step residual variance grown by its model's
// horizon profile (class-1 state-space formulas for exponential smoothing):
//
//	spread(step) = z · |k| · sqrt( Σ_s σ_s² · scale_s(step)² )
func (db *DB) deriveInterval(nodeID, h int, conf float64) (point, lo, hi []float64, err error) {
	sc, ok := db.cfg.Schemes[nodeID]
	if !ok {
		// A sampled advisor run leaves uncovered nodes scheme-less;
		// resolving one mutates the configuration, which refitFor does.
		return nil, nil, nil, errNeedsReestimate
	}
	n := h
	if conf > 0 {
		n = 3 * h
	}
	out := make([]float64, n+len(sc.Sources)*h)
	// The source forecasts' headers stay on the stack for the usual one to
	// eight sources.
	var buf [8][]float64
	fcs := buf[:0]
	for i, s := range sc.Sources {
		m, ok := db.cfg.Models[s]
		if !ok {
			return nil, nil, nil, fmt.Errorf("f2db: scheme source %d has no model", s)
		}
		if db.invalid[s] {
			return nil, nil, nil, errNeedsReestimate
		}
		fc := out[n+i*h : n+(i+1)*h]
		m.Forecast(fc)
		fcs = append(fcs, fc)
	}
	// Use the incrementally maintained weight.
	if st := &db.schemes[nodeID]; st.hSources != 0 && sc.Kind != derivation.Direct {
		sc.K = st.hTarget / st.hSources
	}
	point = out[:h:h]
	if err := sc.ApplyTo(point, fcs); err != nil {
		return nil, nil, nil, err
	}
	if conf <= 0 {
		return point, nil, nil, nil
	}
	lo, hi = out[h:2*h:2*h], out[2*h:3*h:3*h]
	z := optimize.InvNormCDF(0.5 + conf/200)
	for i := range point {
		var variance float64
		for _, s := range sc.Sources {
			m := db.cfg.Models[s]
			if u, ok := m.(forecast.Uncertainty); ok {
				std := u.ResidualStd() * forecast.VarianceScaleOf(m, i+1)
				variance += std * std
			}
		}
		spread := z * math.Abs(sc.K) * math.Sqrt(variance)
		lo[i] = point[i] - spread
		hi[i] = point[i] + spread
	}
	return point, lo, hi, nil
}

// installModel publishes a freshly fitted model: stores it, clears the
// invalid flag, resets the maintenance statistics and bumps the epoch of
// the model node and of every node whose derivation scheme reads the model,
// invalidating their memoized forecasts. The guard must witness the write
// lock.
func (db *DB) installModel(g guard, id int, m forecast.Model) {
	db.assertExclusive(g)
	db.cfg.Models[id] = m
	db.invalid[id] = false
	st := db.mstats[id]
	st.UpdatesSinceFit = 0
	st.RollingError = 0
	db.met.reestimations.Add(1)
	if db.fc != nil {
		bumped := db.fc.bump(id)
		for _, t := range db.deps[id] {
			bumped += db.fc.bump(t)
		}
		db.met.epochBumps.Add(bumped)
	}
}

// Insert adds one new measure value for the base series identified by its
// finest-level member values. Inserts are batched; once every base series
// has received a value for the next time stamp, time advances in the whole
// graph and all models and derivation weights are updated incrementally
// (Section V).
func (db *DB) Insert(members []string, value float64) error {
	sc := getInsertScratch()
	id, err := sc.resolveBase(db.graph, members)
	sc.release()
	if err != nil {
		return err
	}
	return db.InsertBase(id, value)
}

// InsertBase is Insert addressed by base node ID (fast path for generated
// workloads). Incomplete-batch inserts only touch the stripe owning the
// base series; the engine write lock is taken once per completed batch, so
// parallel insert streams neither interfere with concurrent readers nor —
// when they land on different stripes — with each other.
func (db *DB) InsertBase(baseID int, value float64) (err error) {
	start := time.Now()
	defer func() {
		if err == nil {
			db.met.inserts.Add(1)
		}
		db.met.maintainNanos.Add(time.Since(start).Nanoseconds())
	}()
	ord, ok := db.graph.BaseOrdinal(baseID)
	if !ok {
		return fmt.Errorf("f2db: %d is not a base node", baseID)
	}
	s := db.stripeFor(baseID)
	for {
		// advanceGen is read before the stripe lock: while we hold the
		// stripe mutex no advance can release our stripe's slots, so a
		// duplicate observed under the lock belongs to the generation we
		// read (or an earlier one — then the recheck below retries).
		gen := db.advanceGen.Load()
		s.lock()
		if db.present[ord] {
			s.mu.Unlock()
			// Either the batch is complete and awaiting its advance
			// (another inserter won the completion race — help apply it,
			// then retry), or the value really is a duplicate within the
			// current, incomplete batch.
			if err := db.advanceIfComplete(); err != nil {
				return err
			}
			if db.advanceGen.Load() == gen {
				return fmt.Errorf("f2db: duplicate insert for base node %d in current batch", baseID)
			}
			continue
		}
		db.pending[ord], db.present[ord] = value, true
		s.depth.Add(1)
		total := db.pendingTotal.Add(1)
		s.mu.Unlock()
		if total < int64(len(db.graph.BaseIDs)) {
			return nil
		}
		return db.advanceIfComplete()
	}
}

// InsertBatch adds new measure values for many base series (keyed by base
// node ID) in one call. Values are routed to their write stripes and each
// stripe's lock is taken once for its whole group, so concurrent InsertBatch
// calls over disjoint stripes proceed in parallel; whenever the pending
// batch becomes complete, time advances under a single acquisition of the
// engine write lock. This is the write path for bulk producers — the
// workload generator, snapshot restore and multi-row SQL INSERTs — where
// per-value InsertBase locking dominates.
//
// The map is the boundary form only: past the stripes a time point is one
// dense []float64 in BaseIDs order, to the commit gate, the WAL and the graph.
//
// Values are applied in ascending node-ID order within each stripe, stripes
// in index order. A value for a base series that already has a pending
// value in the current (incomplete) batch is a duplicate error, exactly as
// with InsertBase; values applied before the error sticks remain pending.
func (db *DB) InsertBatch(values map[int]float64) error {
	rows := make([]baseRow, 0, len(values))
	for id, v := range values {
		if !db.graph.IsBase(id) {
			return fmt.Errorf("f2db: InsertBatch: %d is not a base node", id)
		}
		rows = append(rows, baseRow{id, v})
	}
	sortRows(rows, db.stripeShift)
	return db.insertSorted(rows)
}

// insertSorted is the body of InsertBatch and of a multi-row SQL INSERT:
// rows are distinct base nodes in sortRows order, so each stripe's rows are
// one contiguous run and a single pass locks every stripe once.
func (db *DB) insertSorted(rows []baseRow) (err error) {
	start := time.Now()
	applied := 0
	defer func() {
		db.met.inserts.Add(int64(applied))
		db.met.batchInserts.Add(1)
		db.met.maintainNanos.Add(time.Since(start).Nanoseconds())
	}()
	numBases := int64(len(db.graph.BaseIDs))
	for i := 0; i < len(rows); {
		s := db.stripeFor(rows[i].id)
		gen := db.advanceGen.Load()
		dupID := -1
		s.lock()
		for ; i < len(rows) && db.stripeFor(rows[i].id) == s; i++ {
			r := rows[i]
			ord, _ := db.graph.BaseOrdinal(r.id) // callers resolved r.id as a base node
			if db.present[ord] {
				dupID = r.id
				break
			}
			db.pending[ord], db.present[ord] = r.value, true
			s.depth.Add(1)
			db.pendingTotal.Add(1)
			applied++
		}
		s.mu.Unlock()
		// >=, not ==: while an advance is mid-sweep, racing next-batch
		// inserts into already-swept stripes can push the counter past
		// numBases transiently; exact equality would skip the help-advance.
		if db.pendingTotal.Load() >= numBases {
			// Either this call completed the batch, or it ran into its
			// own earlier value re-offered against an already-complete
			// batch another inserter has not applied yet: apply (or
			// help apply) the advance, then continue.
			if err := db.advanceIfComplete(); err != nil {
				return err
			}
		}
		// A duplicate left i on its row: if the batch advanced, re-offer it.
		if dupID >= 0 && db.advanceGen.Load() == gen {
			return fmt.Errorf("f2db: duplicate insert for base node %d in current batch", dupID)
		}
	}
	return nil
}

// advanceIfComplete applies the pending batch if it is (still) complete.
// This is the write path's cross-stripe barrier: under maint it commits the
// pending column, then under the engine write lock advances time with it
// and only then clears the presence marks — no insert can slip in because a
// complete batch makes every further insert a duplicate until they are
// cleared. Readers keep answering from the previous time point while the
// commit fsyncs. Safe to race: whichever caller takes maint first advances,
// the rest see an incomplete (fresh) batch and return. An advance that
// arrives during a re-fit waits for it.
func (db *DB) advanceIfComplete() error {
	db.maint.Lock()
	defer db.maint.Unlock()
	numBases := int64(len(db.graph.BaseIDs))
	// With no advance in flight the counter is the number of slots marked
	// present (an insert between its mark and its increment re-runs this
	// check itself): at numBases the column is complete, so frozen, and —
	// every value having been written before its increment — readable
	// without the stripe locks.
	if db.pendingTotal.Load() < numBases {
		return nil
	}
	// Group commit: the batch must be durable before it is applied. On
	// error the column still holds every value — nothing advanced, nothing
	// was lost, and the insert that triggered the advance reports the
	// failure to its caller.
	if db.commitHook != nil {
		if err := db.commitHook(uint64(db.graph.Length), db.pending); err != nil {
			return err
		}
	}
	g := db.wLock()
	err := db.advanceBatch(g, db.pending)
	db.releaseColumn(g, numBases)
	db.unlock(g)
	return err
}

// releaseColumn hands the pending column back to inserters after its batch
// was applied: it clears the presence marks, takes the held values off the
// pending counter and bumps the advance generation. The guard must witness
// the write lock.
func (db *DB) releaseColumn(g guard, held int64) {
	db.assertExclusive(g)
	// Clear under all stripe locks at once: a stripe unlocked early could
	// take a next-batch mark that the clear then erases.
	for i := range db.stripes {
		db.stripes[i].lock()
	}
	clear(db.present)
	for i := range db.stripes {
		db.stripes[i].depth.Store(0)
		db.stripes[i].mu.Unlock()
	}
	if db.testHookAfterSweep != nil {
		db.testHookAfterSweep()
	}
	// Decrement by exactly the number of values held, never reset to zero:
	// inserters hold no engine lock, so a next-batch value can land in a
	// released slot (and increment pendingTotal) before we get here — a
	// Store(0) would erase that increment, permanently undercount the column
	// and stop the completion check from ever firing again.
	db.pendingTotal.Add(-held)
	db.advanceGen.Add(1)
}

// advanceBatch processes a complete batch — one value per base series, in
// BaseIDs order: appends the new values to every node series, updates model
// states and derivation weights incrementally, and applies the invalidation
// strategy. The guard must witness the write lock.
func (db *DB) advanceBatch(g guard, column []float64) error {
	db.assertExclusive(g)
	if err := db.graph.Advance(column); err != nil {
		return err
	}
	db.met.batches.Add(1)

	// Model state updates: compare the one-step forecast against the new
	// actual to maintain the rolling error, then advance the state.
	for id, m := range db.cfg.Models {
		actual := [1]float64{db.graph.Latest(id)}
		st := db.mstats[id]
		m.Forecast(db.step1[:])
		if e := timeseries.SMAPE(actual[:], db.step1[:]); !math.IsNaN(e) {
			st.RollingError = 0.9*st.RollingError + 0.1*e
		}
		m.Update(actual[0])
		st.UpdatesSinceFit++
		if db.strategy.Invalidate(*st) {
			db.invalid[id] = true
		}
	}

	// Incremental derivation-weight maintenance; it makes no node resident.
	for id, sc := range db.cfg.Schemes {
		st := &db.schemes[id]
		if !st.tracked {
			continue
		}
		st.hTarget += db.graph.Latest(id)
		for _, s := range sc.Sources {
			st.hSources += db.graph.Latest(s)
		}
	}
	// A time advance changes every node's series, every model's state and
	// the live derivation weights: every memoized forecast is stale. One
	// atomic increment per node invalidates them all without a sweep.
	if db.fc != nil {
		db.met.epochBumps.Add(db.fc.bumpAll())
	}
	return nil
}

// InvalidCount returns how many models currently await re-estimation.
func (db *DB) InvalidCount() int {
	g := db.rLock()
	defer db.unlock(g)
	c := 0
	for _, v := range db.invalid {
		if v {
			c++
		}
	}
	return c
}

// ModelHealth reports per-model maintenance state for monitoring: state
// updates since the last (re-)estimation, the rolling one-step SMAPE
// observed during maintenance and whether the model currently awaits
// re-estimation. Keyed by the node's canonical coordinate key.
type ModelHealth struct {
	Node            int
	Family          string
	UpdatesSinceFit int
	RollingError    float64
	Invalid         bool
}

// Health returns a snapshot of every model's maintenance state.
func (db *DB) Health() map[string]ModelHealth {
	g := db.rLock()
	defer db.unlock(g)
	out := make(map[string]ModelHealth, len(db.cfg.Models))
	for id, m := range db.cfg.Models {
		st := db.mstats[id]
		h := ModelHealth{Node: id, Family: m.Name(), Invalid: db.invalid[id]}
		if st != nil {
			h.UpdatesSinceFit = st.UpdatesSinceFit
			h.RollingError = st.RollingError
		}
		out[db.graph.KeyOf(id)] = h
	}
	return out
}
