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
// shared read access and run concurrently on all cores; a query answered
// from the read table takes none. Every state
// change — an insert statement with the advances it completes, a model
// re-fit, a checkpoint or compaction, replay — holds the maintenance lock,
// so while it is held no series, model or pending value changes, and an
// insert statement applies whole or not at all; no insert waits for
// readers. The exclusive engine lock covers only the
// in-memory apply (advancing the batch, installing fitted models, resolving
// a scheme); the WAL fsync, compaction and every model fit run under the
// maintenance lock alone while readers keep answering from the previous
// state. The one crossing point between
// readers and maintenance is lazy re-estimation (Section V delays parameter
// re-estimation until a query references the model): a query that hits an
// invalidated model drops its shared lock, takes the maintenance lock,
// re-fits what it needs and answers before releasing it. Engine counters are
// atomics (see metrics.go), so observing the engine never blocks it.
package f2db

import (
	"errors"
	"fmt"
	"math"
	"slices"
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
// the weight can be maintained incrementally (Section V).
type schemeState struct {
	hTarget  float64
	hSources float64
}

// DB is the embedded F²DB engine.
type DB struct {
	// maint serializes every state change: the batch advance (with its WAL
	// append and fsync), every model re-fit, the durability layer's
	// checkpoint, compaction and close, replay and snapshots. Lock order:
	// maint before mu.
	maint sync.Mutex
	// mu separates shared readers (forecast queries, health and stats
	// snapshots) from the exclusive in-memory apply of a state change, which
	// always runs under maint too.
	mu sync.RWMutex

	graph *cube.Graph
	cfg   *core.Configuration

	// planner is the statement resolver over graph (route.go). It carries
	// the step duration — the real-time span of one series step, which
	// translates "AS OF now() + '1 day'" into a forecast horizon.
	planner *Planner

	strategy InvalidationStrategy
	// models lists the model nodes ascending. A re-fit replaces a model in
	// place, so the list is fixed at Open, and a model's ordinal — its
	// position here — indexes invalid and mstats.
	models  []int
	invalid []bool
	mstats  []ModelStats
	schemes []schemeState // by node ID
	// step1 receives each model's one-step forecast in advanceBatch, under
	// the write lock, and seeds[o] the warm-start parameters of model o's
	// re-fit, under maint (the fits of one refit have distinct ordinals): a
	// stack array would escape through the interface call.
	step1 [1]float64
	seeds [][3]float64

	// batch is the insert batch being collected, guarded by maint. Time
	// advances only once every base series has a value for the next time
	// stamp, and the advance hands the column on as it stands, so nothing is
	// copied.
	batch *Batch

	// baseCounts holds the number of base series per node (AVG queries),
	// precomputed at Open so the read path never mutates shared state.
	baseCounts []int

	// table is the read table (sql.go; nil when disabled): by NormalizeSQL
	// text, each statement's plan and the answer derived under generation
	// gen. Every advance and installed re-fit bumps gen under mu held
	// exclusively, so an answer derived under the shared lock is stamped
	// with the generation it was derived at.
	table *lru.Table[Plan, answer]
	gen   atomic.Uint64

	met engineMetrics

	// log, when non-nil, is the durability layer (durable.go), installed
	// once by OpenDurable before any concurrency and never mutated on a
	// live engine. advance commits every complete batch through it, under
	// maint and without mu, BEFORE the batch is applied and the column
	// released; an error refuses the advance with the column untouched, so
	// the engine stays consistent and a later insert retries the commit.
	// applyRows then hands it each settled statement for its checkpoint
	// budget.
	log *Durable
}

// Options configures Open.
type Options struct {
	// StepDuration translates query horizons; default 24h (daily data).
	StepDuration time.Duration
	// Strategy is the model invalidation strategy; default Never.
	Strategy InvalidationStrategy
	// PlanCacheSize bounds the read table, in statements. 0 selects the
	// default (256); a negative value turns the table off, and every query
	// plans and derives (the reference path).
	PlanCacheSize int
	// ForecastCacheSize is ignored. It stays only because the benchmark
	// harness sets it.
	ForecastCacheSize int
}

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
		for _, v := range g.History(id, nil)[cfg.TrainLen:] {
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
	db := &DB{
		graph:    g,
		cfg:      cfg,
		planner:  NewPlanner(g, opts.StepDuration),
		strategy: opts.Strategy,
		models:   cfg.ModelIDs(),
		invalid:  make([]bool, len(cfg.Models)),
		mstats:   make([]ModelStats, len(cfg.Models)),
		seeds:    make([][3]float64, len(cfg.Models)),
		schemes:  make([]schemeState, g.NumNodes()),
	}
	db.batch = db.planner.NewBatch()
	// A node without a scheme (from an image an older engine saved, or one no
	// model could be evaluated for) gets one now, so every scheme is tracked
	// from the start. One that cannot be derived stays without and answers
	// with an error.
	for id := 0; id < g.NumNodes(); id++ {
		cfg.ResolveScheme(id)
	}
	// Initialize incremental weight states from the full history, summed
	// time point by time point in the order advanceBatch adds each new one,
	// so an engine opened on a longer history holds bit for bit the sums of
	// one advanced to it. Sources carry models, so their histories are few;
	// every target is read into one reused row.
	hist := make(map[int][]float64, len(cfg.Models))
	var row []float64
	var srcRows [][]float64
	for id, sc := range cfg.Schemes {
		if sc.Sources == nil {
			continue
		}
		srcRows = srcRows[:0]
		for _, s := range sc.Sources {
			if hist[s] == nil {
				hist[s] = g.History(s, nil)
			}
			srcRows = append(srcRows, hist[s])
		}
		st := &db.schemes[id]
		row = g.History(id, row)
		for t, v := range row {
			st.hTarget += v
			for _, r := range srcRows {
				st.hSources += r[t]
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
			size = 256
		}
		db.table = lru.NewTable[Plan, answer](size, &db.gen, lru.Meters{
			PlanHits: &db.met.planHits, Hits: &db.met.fcHits, Misses: &db.met.fcMisses,
			Evictions: &db.met.evictions, Invalidations: &db.met.invalidations,
		})
	}
	return db, nil
}

// Stats returns a snapshot of the engine counters. It is lock-free.
func (db *DB) Stats() Stats {
	pending := int(db.batch.total.Load())
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
// a model awaiting re-estimation; the caller re-fits under maint and retries
// once (refitFor). It never escapes the package API.
var errNeedsReestimate = errors.New("f2db: model awaits re-estimation")

// ForecastNode answers a forecast for the node over horizon h steps using
// the stored scheme and live model states, re-estimating invalid models
// lazily (Section V: "we reduce maintenance overhead by delaying parameter
// reestimation until the model is actually referenced by a query"). It
// derives under the shared read lock, uncached; only a call that actually
// needs a re-estimation takes the maintenance lock (refitFor). The returned
// slice is the caller's own.
func (db *DB) ForecastNode(nodeID, h int) ([]float64, error) {
	start := time.Now()
	sc, _ := db.cfg.Scheme(nodeID)
	out := make([]float64, (1+len(sc.Sources))*h)
	derive := func() error {
		db.mu.RLock()
		defer db.mu.RUnlock()
		return db.deriveInterval(out[:h], out[h:], nodeID, h, 0)
	}
	err := derive()
	if err == errNeedsReestimate {
		db.met.fcBypasses.Add(1)
		db.maint.Lock()
		defer db.maint.Unlock()
		if err = db.refitFor([]int{nodeID}); err == nil {
			err = derive()
		}
	}
	if err != nil {
		return nil, err
	}
	db.recordForecasts([]int{nodeID}, time.Since(start))
	return out[:h:h], nil
}

// deriveInterval derives the point forecast of a node over h steps from
// live model state into dst[:h] and, when conf > 0 (a percentage, e.g. 95),
// lower and upper prediction-interval bounds into dst[h:2h] and
// dst[2h:3h]; src holds the source forecasts, h per source. The caller
// holds the shared lock. The interval assumes independent, normally
// distributed residuals at the scheme's sources; each source contributes
// its one-step residual variance grown by its model's horizon profile
// (class-1 state-space formulas for exponential smoothing):
//
//	spread(step) = z · |k| · sqrt( Σ_s σ_s² · scale_s(step)² )
//
// A sum of squares that overflows is taken again in units of the largest
// σ_s · scale_s(step), so finite deviations give finite bounds.
func (db *DB) deriveInterval(dst, src []float64, nodeID, h int, conf float64) error {
	sc, ok := db.cfg.Scheme(nodeID)
	if !ok {
		return fmt.Errorf("f2db: node %d has no derivation scheme", nodeID)
	}
	// The source forecasts' headers stay on the stack for the usual one to
	// eight sources.
	var buf [8][]float64
	fcs := buf[:0]
	for i, s := range sc.Sources {
		m, ok := db.cfg.Models[s]
		if !ok {
			return fmt.Errorf("f2db: scheme source %d has no model", s)
		}
		if o, _ := db.ordinal(s); db.invalid[o] {
			return errNeedsReestimate
		}
		fc := src[i*h : (i+1)*h]
		m.Forecast(fc)
		fcs = append(fcs, fc)
	}
	// Use the incrementally maintained weight.
	if st := &db.schemes[nodeID]; st.hSources != 0 && sc.Kind != derivation.Direct {
		sc.K = st.hTarget / st.hSources
	}
	point := dst[:h:h]
	if err := sc.ApplyTo(point, fcs); err != nil {
		return err
	}
	if conf <= 0 {
		return nil
	}
	lo, hi := dst[h:2*h], dst[2*h:3*h]
	z := optimize.InvNormCDF(0.5 + conf/200)
	for i := range point {
		var variance, top float64
		for _, s := range sc.Sources {
			std := residualStd(db.cfg.Models[s], i+1)
			variance += std * std
			top = max(top, math.Abs(std))
		}
		root := math.Sqrt(variance)
		if math.IsInf(variance, 1) && !math.IsInf(top, 1) {
			variance = 0
			for _, s := range sc.Sources {
				r := residualStd(db.cfg.Models[s], i+1) / top
				variance += r * r
			}
			root = top * math.Sqrt(variance)
		}
		spread := z * math.Abs(sc.K) * root
		lo[i] = point[i] - spread
		hi[i] = point[i] + spread
	}
	return nil
}

// residualStd is a model's residual standard deviation grown to the given
// forecast step; 0 for a model that reports no uncertainty.
func residualStd(m forecast.Model, step int) float64 {
	if u, ok := m.(forecast.Uncertainty); ok {
		return u.ResidualStd() * forecast.VarianceScaleOf(m, step)
	}
	return 0
}

// installModel publishes a freshly fitted model: stores it, clears the
// invalid flag and resets the maintenance statistics. It stales no answer
// in the read table: an answer is stored only when every source model was
// valid, a model turns invalid only at a time advance, which bumps the
// generation, and only an invalid model is re-fitted. The caller holds
// maint and mu exclusively.
func (db *DB) installModel(id int, m forecast.Model) {
	db.cfg.Models[id] = m
	o, _ := db.ordinal(id)
	db.invalid[o] = false
	db.mstats[o] = ModelStats{}
	db.met.reestimations.Add(1)
}

// ordinal returns the position of the model at node id in db.models, and
// whether there is one.
func (db *DB) ordinal(id int) (int, bool) { return slices.BinarySearch(db.models, id) }

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
// workloads): a statement of one row.
func (db *DB) InsertBase(baseID int, value float64) error {
	if !db.graph.IsBase(baseID) {
		return fmt.Errorf("f2db: %d is not a base node", baseID)
	}
	row := [1]baseRow{{baseID, value}}
	return db.applyRows(row[:])
}

// InsertBatch adds new measure values for many base series (keyed by base
// node ID) in one statement; whenever the pending batch becomes complete,
// time advances under a single acquisition of the engine write lock. This
// is the write path for bulk producers — the workload generator, snapshot
// restore and multi-row SQL INSERTs — where per-value InsertBase locking
// dominates.
//
// The map is the boundary form only: in the pending column a time point is
// one dense []float64 in BaseIDs order, to the commit gate, the WAL and the
// graph.
//
// Values are applied in ascending node-ID order. A value for a base series
// that already has a pending value in the current (incomplete) batch is a
// duplicate error, exactly as with InsertBase, and rejects the whole
// statement.
func (db *DB) InsertBatch(values map[int]float64) error {
	rows := make([]baseRow, 0, len(values))
	for id, v := range values {
		if !db.graph.IsBase(id) {
			return fmt.Errorf("f2db: InsertBatch: %d is not a base node", id)
		}
		rows = append(rows, baseRow{id, v})
	}
	sortRows(rows)
	db.met.batchInserts.Add(1)
	return db.applyRows(rows)
}

// applyRows runs one insert statement of distinct base rows in ascending ID
// order through the batch's rule (Batch.fill) under maint, so no other
// statement, advance or re-fit interleaves and a snapshot sees all of its
// rows or none. They count as inserts before maint is released, and a
// durable engine checkpoints the settled state under the same hold when its
// budget is spent; only a failed commit returns an error after some landed.
func (db *DB) applyRows(rows []baseRow) error {
	start := time.Now()
	db.maint.Lock()
	applied, err := db.batch.fill(rows, db.advance)
	db.met.inserts.Add(int64(applied))
	if db.log != nil {
		db.log.checkpointIfDue()
	}
	db.maint.Unlock()
	db.met.maintainNanos.Add(time.Since(start).Nanoseconds())
	return err
}

// advance applies a complete batch. The caller holds maint, under which it
// commits the column (group commit: durable before applied), then under the
// engine write lock advances time with it; readers keep answering from the
// previous time point while the commit fsyncs. On error nothing advanced,
// the column keeps every value, and the triggering insert reports it.
func (db *DB) advance(column []float64) error {
	if db.log != nil {
		if err := db.log.commit(uint64(db.graph.Length), column); err != nil {
			return err
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.advanceBatch(column)
}

// advanceBatch processes a complete batch — one value per base series, in
// BaseIDs order: appends the new values to every node series, updates model
// states and derivation weights incrementally, and applies the invalidation
// strategy. The caller holds maint and mu exclusively.
func (db *DB) advanceBatch(column []float64) error {
	if err := db.graph.Advance(column); err != nil {
		return err
	}
	db.met.batches.Add(1)

	// Model state updates: compare the one-step forecast against the new
	// actual to maintain the rolling error, then advance the state.
	for o, id := range db.models {
		m := db.cfg.Models[id]
		actual := [1]float64{db.graph.Latest(id)}
		st := &db.mstats[o]
		m.Forecast(db.step1[:])
		if e := timeseries.SMAPE(actual[:], db.step1[:]); !math.IsNaN(e) {
			st.RollingError = 0.9*st.RollingError + 0.1*e
		}
		m.Update(actual[0])
		st.UpdatesSinceFit++
		if db.strategy.Invalidate(*st) {
			db.invalid[o] = true
		}
	}

	// Incremental derivation-weight maintenance; it makes no node resident.
	for id, sc := range db.cfg.Schemes {
		if sc.Sources == nil {
			continue
		}
		st := &db.schemes[id]
		st.hTarget += db.graph.Latest(id)
		for _, s := range sc.Sources {
			st.hSources += db.graph.Latest(s)
		}
	}
	// A time advance changes every node's series, every model's state and
	// the live derivation weights: every answer in the read table is stale.
	// The caller holds the write lock, so no reader derives against the old
	// state and stamps the new generation.
	db.gen.Add(1)
	db.met.epochBumps.Add(1)
	return nil
}

// InvalidCount returns how many models currently await re-estimation.
func (db *DB) InvalidCount() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
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
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make(map[string]ModelHealth, len(db.models))
	for o, id := range db.models {
		st := db.mstats[o]
		out[db.graph.KeyOf(id)] = ModelHealth{Node: id, Family: db.cfg.Models[id].Name(), Invalid: db.invalid[o],
			UpdatesSinceFit: st.UpdatesSinceFit, RollingError: st.RollingError}
	}
	return out
}
