// Package workload generates forecast-query and insert workloads against a
// loaded F²DB engine, reproducing the query/insert experiment of Figure 9b:
// a stream of time advances (one insert per base series per time point)
// interleaved with a configurable number of random forecast queries per
// insert.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cubefc/internal/cube"
	"cubefc/internal/f2db"
	"cubefc/internal/fclient"
)

// Generator produces random forecast queries and plausible insert values
// for a graph.
type Generator struct {
	g   *cube.Graph
	rng *rand.Rand
}

// New returns a deterministic workload generator.
func New(g *cube.Graph, seed int64) *Generator {
	return &Generator{g: g, rng: rand.New(rand.NewSource(seed))}
}

// RandomNode picks a uniformly random node (base or aggregated series, as
// in the paper: "random forecast queries for base and aggregated time
// series").
func (w *Generator) RandomNode() int {
	return w.rng.Intn(w.g.NumNodes())
}

// QuerySQL renders a forecast query for the node in the engine's SQL
// dialect. It reads the coordinate from the graph skeleton (CellOf), not
// the node, so rendering queries against a cube never materializes
// the target — materialization happens in whichever engine answers.
func (w *Generator) QuerySQL(nodeID, steps int) string {
	sql := "SELECT time, SUM(m) FROM facts"
	first := true
	for d := range w.g.Dims {
		dim, cell := &w.g.Dims[d], w.g.CellOf(nodeID, d)
		if cell.IsAll(dim) {
			continue
		}
		if first {
			sql += " WHERE "
			first = false
		} else {
			sql += " AND "
		}
		sql += fmt.Sprintf("%s = '%s'", dim.Levels[cell.Level], cell.Value)
	}
	sql += fmt.Sprintf(" GROUP BY time AS OF now() + '%d steps'", steps)
	return sql
}

// InsertSQL renders a batch of base-series values (keyed by base node ID)
// as one multi-row INSERT statement in the engine's dialect, rows in
// ascending node-ID order (f2db.AppendInsert, the coordinator's renderer).
// This is the write path of remote workloads: a statement per writer
// stream, executed over the wire by fclient.Exec.
func (w *Generator) InsertSQL(batch map[int]float64) string {
	ids := make([]int, 0, len(batch))
	for id := range batch {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	values := make([]float64, len(ids))
	for i, id := range ids {
		values[i] = batch[id]
	}
	return string(f2db.AppendInsert(nil, w.g, ids, values))
}

// SplitBatch partitions a full insert batch into n sub-batches of near-equal
// size (keyed by base node ID, ascending), one per concurrent insert stream.
// Applying every part — in any order, from any number of goroutines —
// completes the same time advance as applying the original batch at once.
func SplitBatch(batch map[int]float64, n int) []map[int]float64 {
	if n < 1 {
		n = 1
	}
	ids := make([]int, 0, len(batch))
	for id := range batch {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	parts := make([]map[int]float64, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(ids)/n, (i+1)*len(ids)/n
		if lo == hi {
			continue
		}
		part := make(map[int]float64, hi-lo)
		for _, id := range ids[lo:hi] {
			part[id] = batch[id]
		}
		parts = append(parts, part)
	}
	return parts
}

// NextBatch synthesizes the next time-stamp value for every base series:
// the seasonal-naive continuation of each series perturbed with
// proportional noise — a plausible "new actual" stream.
func (w *Generator) NextBatch() map[int]float64 {
	out := make(map[int]float64, len(w.g.BaseIDs))
	for _, id := range w.g.BaseIDs {
		s := w.g.Node(id).Series
		n := s.Len()
		lag := s.Period
		if lag < 1 || lag > n {
			lag = 1
		}
		base := s.Values[n-lag]
		v := base * (1 + 0.05*w.rng.NormFloat64())
		if v < 0 {
			v = 0
		}
		out[id] = v
	}
	return out
}

// RunResult aggregates a workload execution.
type RunResult struct {
	Queries       int
	Inserts       int
	AvgQueryTime  time.Duration
	TotalTime     time.Duration
	QueryTime     time.Duration // engine time spent answering queries
	MaintainTime  time.Duration // engine time spent on insert maintenance
	Reestimations int
}

// EngineTimePerQuery is the engine-side cost per forecast query including
// the amortized maintenance share of the interleaved inserts — the measure
// plotted in Figure 9b.
func (r RunResult) EngineTimePerQuery() time.Duration {
	if r.Queries == 0 {
		return 0
	}
	return (r.QueryTime + r.MaintainTime) / time.Duration(r.Queries)
}

// Options configures Run.
type Options struct {
	// TimePoints is the number of full insert batches (time advances);
	// the paper uses 10.
	TimePoints int
	// QueriesPerInsert is the query/insert ratio (paper: 1..10).
	QueriesPerInsert int
	// Horizon is the forecast horizon per query in steps (default 1).
	Horizon int
	// UseSQL routes queries through the SQL parser instead of the direct
	// node API (slower; exercises the full query processor).
	UseSQL bool
	// InsertWriters drives each time advance from this many parallel
	// insert streams: the batch is split into InsertWriters disjoint parts
	// applied by concurrent goroutines, which the engine serializes on its
	// maintenance lock. 0 or 1 keeps the single sequential stream. In
	// remote mode this is the N of "N writer connections": each
	// stream executes its part as one multi-row INSERT over its own pooled
	// connection.
	InsertWriters int

	// HotQueries, when > 0, draws queries from a fixed recurring "hot set"
	// of this many statement targets: each query picks a hot-set node with
	// probability HotFraction instead of a fresh uniform draw — the
	// recurring-template distribution real dashboards exhibit and the
	// coordinator's result cache exploits. The set is drawn from the
	// generator stream at Run start, so equal seeds and options produce
	// equal hot sets and equal statement streams, local or remote. 0 keeps
	// the all-random mix.
	HotQueries int
	// HotFraction is the probability a query targets the hot set (used
	// only when HotQueries > 0; default 0.9).
	HotFraction float64
	// Phases, when > 1, makes the hot mix time-varying: the hot set is
	// split into Phases disjoint contiguous slices and the queries issued
	// after time point tp draw their hot targets from slice tp % Phases
	// only. The workload then cycles through recurring per-template spike
	// (in phase) and trough (out of phase) periods — the phased mix a
	// mechanism is ablated on by counts (ROADMAP, "Ablate every layer by
	// counts") — while staying fully deterministic per seed: equal seeds
	// and options give equal phase schedules, local or remote. Capped at
	// HotQueries; ignored without a hot set.
	Phases int

	// RemoteAddr, when non-empty, drives a live f2dbd at this address over
	// internal/fclient instead of the in-process engine: queries go
	// through the wire protocol (always SQL — UseSQL is implied), inserts
	// through multi-row INSERT statements. The generator's graph must
	// match the data set the daemon serves. The db argument to Run is
	// ignored and may be nil; engine-side QueryTime/MaintainTime are not
	// populated (they live in the server process — scrape its /metrics
	// endpoint instead).
	RemoteAddr string
	// RemoteReaders is the M of "M reader connections" in remote mode:
	// forecast queries are issued from this many concurrent goroutines,
	// each with its own pooled connection. Default 1.
	RemoteReaders int

	// OnQueryResult, when non-nil, receives every query result together
	// with the query's global sequence index in the deterministic
	// statement stream. A local (UseSQL) run and a remote run with the
	// same generator seed and options produce the same index→statement
	// mapping, so twin runs compare results pairwise by index. Remote mode
	// invokes it from the reader goroutines: it must be safe for
	// concurrent use. Ignored on the local direct-node path (no SQL
	// statement stream to index).
	OnQueryResult func(i int, res *f2db.Result)
}

// hotSet is the recurring-query mix of Options.HotQueries: a fixed set of
// node targets most queries are drawn from, optionally sliced into
// time-varying phases (Options.Phases).
type hotSet struct {
	nodes  []int
	frac   float64
	phases int
}

// buildHotSet renders the hot set from the generator stream (HotQueries
// RandomNode draws), so equal seeds and options give equal sets.
func buildHotSet(gen *Generator, opts Options) *hotSet {
	if opts.HotQueries <= 0 {
		return nil
	}
	frac := opts.HotFraction
	if frac <= 0 {
		frac = 0.9
	}
	if frac > 1 {
		frac = 1
	}
	h := &hotSet{nodes: make([]int, opts.HotQueries), frac: frac, phases: opts.Phases}
	if h.phases > len(h.nodes) {
		h.phases = len(h.nodes)
	}
	for i := range h.nodes {
		h.nodes[i] = gen.RandomNode()
	}
	return h
}

// next draws one query target for the given phase: a hot-set node with
// probability frac — from the phase's slice when the mix is phased, from
// the whole set otherwise — or a fresh uniform node. A nil hotSet is the
// all-random mix.
func (h *hotSet) next(gen *Generator, phase int) int {
	if h != nil && gen.rng.Float64() < h.frac {
		nodes := h.nodes
		if h.phases > 1 {
			p := phase % h.phases
			lo, hi := p*len(h.nodes)/h.phases, (p+1)*len(h.nodes)/h.phases
			nodes = h.nodes[lo:hi]
		}
		return nodes[gen.rng.Intn(len(nodes))]
	}
	return gen.RandomNode()
}

// Run executes the interleaved workload against the engine: for every time
// point, each base series receives one insert, and QueriesPerInsert random
// forecast queries are issued per insert.
func Run(db *f2db.DB, gen *Generator, opts Options) (RunResult, error) {
	if opts.TimePoints <= 0 {
		opts.TimePoints = 10
	}
	if opts.QueriesPerInsert <= 0 {
		opts.QueriesPerInsert = 1
	}
	if opts.Horizon <= 0 {
		opts.Horizon = 1
	}
	hot := buildHotSet(gen, opts)
	if opts.RemoteAddr != "" {
		return runRemote(gen, hot, opts)
	}
	var res RunResult
	statsBefore := db.Stats()
	start := time.Now()
	var queryTime time.Duration
	baseIDs := db.Graph().BaseIDs()
	runQuery := func(node int) error {
		qs := time.Now()
		var err error
		if opts.UseSQL {
			var r *f2db.Result
			r, err = db.Query(gen.QuerySQL(node, opts.Horizon))
			if err == nil && opts.OnQueryResult != nil {
				opts.OnQueryResult(res.Queries, r)
			}
		} else {
			_, err = db.ForecastNode(node, opts.Horizon)
		}
		queryTime += time.Since(qs)
		if err != nil {
			return fmt.Errorf("workload: query on node %d: %w", node, err)
		}
		res.Queries++
		return nil
	}
	for tp := 0; tp < opts.TimePoints; tp++ {
		batch := gen.NextBatch()
		// Batched write path: the engine locks are taken once for the
		// whole time advance; the query/insert ratio is preserved by
		// issuing the batch's query share afterwards. With InsertWriters
		// > 1 the advance is driven by parallel streams over disjoint
		// parts of the batch (concurrent writers on the maintenance lock).
		if opts.InsertWriters > 1 {
			parts := SplitBatch(batch, opts.InsertWriters)
			errs := make([]error, len(parts))
			var wg sync.WaitGroup
			for i, part := range parts {
				wg.Add(1)
				go func(i int, part map[int]float64) {
					defer wg.Done()
					errs[i] = db.InsertBatch(part)
				}(i, part)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return res, err
				}
			}
		} else if err := db.InsertBatch(batch); err != nil {
			return res, err
		}
		res.Inserts += len(batch)
		for q := 0; q < opts.QueriesPerInsert*len(baseIDs); q++ {
			if err := runQuery(hot.next(gen, tp)); err != nil {
				return res, err
			}
		}
	}
	res.TotalTime = time.Since(start)
	if res.Queries > 0 {
		res.AvgQueryTime = queryTime / time.Duration(res.Queries)
	}
	after := db.Stats()
	res.Reestimations = after.Reestimations - statsBefore.Reestimations
	res.QueryTime = after.QueryTime - statsBefore.QueryTime
	res.MaintainTime = after.MaintainTime - statsBefore.MaintainTime
	return res, nil
}

// runRemote executes the interleaved workload against a live f2dbd over
// the wire protocol: per time point, the batch is split over N writer
// connections (Options.InsertWriters) each executing its part as one
// multi-row INSERT, then the batch's query share is issued from M reader
// connections (Options.RemoteReaders). Writer and reader traffic use
// separate clients so insert statements never queue behind pipelined
// query bursts.
func runRemote(gen *Generator, hot *hotSet, opts Options) (RunResult, error) {
	writers := opts.InsertWriters
	if writers < 1 {
		writers = 1
	}
	readers := opts.RemoteReaders
	if readers < 1 {
		readers = 1
	}
	writeC, err := fclient.Dial(opts.RemoteAddr, fclient.Options{PoolSize: writers})
	if err != nil {
		return RunResult{}, fmt.Errorf("workload: dialing %s: %w", opts.RemoteAddr, err)
	}
	defer writeC.Close()
	readC, err := fclient.Dial(opts.RemoteAddr, fclient.Options{PoolSize: readers})
	if err != nil {
		return RunResult{}, fmt.Errorf("workload: dialing %s: %w", opts.RemoteAddr, err)
	}
	defer readC.Close()

	var res RunResult
	start := time.Now()
	var queryTime atomic.Int64
	var queries atomic.Int64
	numBase := len(gen.g.BaseIDs)
	for tp := 0; tp < opts.TimePoints; tp++ {
		batch := gen.NextBatch()
		parts := SplitBatch(batch, writers)
		werrs := make([]error, len(parts))
		var wg sync.WaitGroup
		for i, part := range parts {
			wg.Add(1)
			go func(i int, part map[int]float64) {
				defer wg.Done()
				werrs[i] = writeC.Exec(gen.InsertSQL(part))
			}(i, part)
		}
		wg.Wait()
		for _, err := range werrs {
			if err != nil {
				return res, fmt.Errorf("workload: remote insert: %w", err)
			}
		}
		res.Inserts += len(batch)

		// The batch's query share, spread over the reader connections.
		// Node and horizon choices come from the generator up front so the
		// stream stays deterministic regardless of goroutine scheduling.
		total := opts.QueriesPerInsert * numBase
		qbase := tp * total // global index of this point's first query
		sqls := make([]string, total)
		for q := range sqls {
			sqls[q] = gen.QuerySQL(hot.next(gen, tp), opts.Horizon)
		}
		rerrs := make([]error, readers)
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for q := r; q < total; q += readers {
					qs := time.Now()
					qres, err := readC.Query(sqls[q])
					queryTime.Add(time.Since(qs).Nanoseconds())
					if err != nil {
						rerrs[r] = fmt.Errorf("workload: remote query: %w", err)
						return
					}
					if opts.OnQueryResult != nil {
						opts.OnQueryResult(qbase+q, qres)
					}
					queries.Add(1)
				}
			}(r)
		}
		wg.Wait()
		for _, err := range rerrs {
			if err != nil {
				return res, err
			}
		}
	}
	res.Queries = int(queries.Load())
	res.TotalTime = time.Since(start)
	if res.Queries > 0 {
		res.AvgQueryTime = time.Duration(queryTime.Load()) / time.Duration(res.Queries)
	}
	return res, nil
}
