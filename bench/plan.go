package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"cubefc/internal/cube"
	"cubefc/internal/workload"
)

// Workload names, in the order the all-workload mode runs them.
const (
	wlReadHot  = "read-hot"
	wlReadCold = "read-cold"
	wlIngest   = "ingest"
	wlMixedRW  = "mixed-rw"
	wlAdvisor  = "advisor"
)

var workloadNames = []string{wlReadHot, wlReadCold, wlIngest, wlMixedRW, wlAdvisor}

const (
	// hotStatements is the recurring statement set of read-hot and the hot
	// share of mixed-rw: small enough to fit every cache in the stack.
	hotStatements  = 64
	hotDrillDowns  = 16
	coldPerClient  = 20_000 // distinct-ish statements per read-cold client; ≫ every cache (≤ 4096 entries)
	coldDrillEvery = 10     // one statement in ten is a drill-down
	insertRows     = 256    // rows per multi-row INSERT
	probeCount     = 256    // statements in the correctness probe set
	probeDrills    = 64

	// mixedReadRate is R: the offered open-loop read rate of mixed-rw in
	// statements per second. It was measured once as 40 % of this box's
	// read-cold throughput (rounded to 100) and is frozen so that every
	// later run offers the same load whatever the code under test achieves.
	mixedReadRate   = 3000
	mixedHotShare   = 0.70
	mixedColdStmts  = 8_000
	mixedWriteEvery = 250_000_000 // ns between full time points on mixed-rw
	mixedWarmNanos  = 1_500_000_000
)

// horizons are the forecast horizons statements draw from.
var horizons = []int{1, 2, 3, 6}

// arrival is one open-loop read: when it is due (ns from phase start) and
// which statement it sends.
type arrival struct {
	due  int64
	stmt int32
}

// plan is every input of one run, rendered from the seed before anything
// is timed: the same seed gives the same plan, byte for byte.
type plan struct {
	// stmts is the statement table reads index into; the first len(hot)
	// entries are the hot set.
	stmts []string
	hot   int
	// reads holds one statement-index sequence per closed-loop client,
	// cycled when exhausted.
	reads [][]int32
	// writes is one season of full time points, each split into multi-row
	// INSERT statements; writers cycle through it.
	writes [][]string
	// warmArrivals and arrivals are the open-loop read schedules of the
	// warm-up and the timed phase of mixed-rw.
	warmArrivals, arrivals []arrival
	// probes is the fixed statement set the correctness gate answers
	// through the stack and through the twin.
	probes []string
}

// planner renders statements over the (never advanced) routing graph.
type planner struct {
	g   *cube.Graph
	gen *workload.Generator
	rng *rand.Rand
}

func newPlanner(g *cube.Graph, seed int64) *planner {
	return &planner{g: g, gen: workload.New(g, seed), rng: rand.New(rand.NewSource(seed))}
}

func (p *planner) horizon() int { return horizons[p.rng.Intn(len(horizons))] }

// single renders a single-node forecast query on a uniformly drawn node.
func (p *planner) single() string {
	return p.gen.QuerySQL(p.rng.Intn(p.g.NumNodes()), p.horizon())
}

// drill renders a drill-down: GROUP BY time and one hierarchy level of one
// dimension, the other dimensions pinned to the cell of a uniformly drawn
// node. Its groups live on both shards, so the coordinator scatters it.
func (p *planner) drill() string {
	d := p.rng.Intn(len(p.g.Dims))
	return p.drillAt(d, p.rng.Intn(len(p.g.Dims[d].Levels)), p.horizon())
}

func (p *planner) drillAt(d, level, h int) string {
	sql, sep := "SELECT time, SUM(m) FROM facts", " WHERE "
	for o, cell := range p.g.CoordOf(p.rng.Intn(p.g.NumNodes())) {
		if dim := &p.g.Dims[o]; o != d && !cell.IsAll(dim) {
			sql += fmt.Sprintf("%s%s = '%s'", sep, dim.Levels[cell.Level], cell.Value)
			sep = " AND "
		}
	}
	return sql + fmt.Sprintf(" GROUP BY time, %s AS OF now() + '%d steps'", p.g.Dims[d].Levels[level], h)
}

// dimLevel names one hierarchy level of one dimension.
type dimLevel struct{ d, level int }

// levels lists every hierarchy level a drill-down can group by.
func (p *planner) levels() []dimLevel {
	var out []dimLevel
	for d := range p.g.Dims {
		for l := range p.g.Dims[d].Levels {
			out = append(out, dimLevel{d, l})
		}
	}
	return out
}

// hotSet renders the recurring statements. Which nodes and members they
// name is the seed's choice; their make-up is not, because a set this
// small would otherwise differ from seed to seed in what an average answer
// costs (a drill-down has 17 or 83 groups of 1 to 6 rows): the single-node
// queries go round-robin over the aggregation levels (a uniform draw would
// be 2/3 base series), the drill-downs round-robin over the hierarchy
// levels, and both round-robin over the horizons.
func (p *planner) hotSet() []string {
	byClass := map[int][]int{}
	var classes []int
	for _, id := range p.rng.Perm(p.g.NumNodes()) {
		class := 0
		for _, cell := range p.g.CoordOf(id) {
			class = class*8 + cell.Level
		}
		if byClass[class] == nil {
			classes = append(classes, class)
		}
		byClass[class] = append(byClass[class], id)
	}
	sort.Ints(classes) // Perm met them in a seed-dependent order
	out := make([]string, 0, hotStatements)
	singles := min(hotStatements-hotDrillDowns, p.g.NumNodes())
	for i := 0; len(out) < singles; i++ {
		ids := byClass[classes[i%len(classes)]]
		if k := i / len(classes); k < len(ids) {
			out = append(out, p.gen.QuerySQL(ids[k], horizons[len(out)%len(horizons)]))
		}
	}
	levels := p.levels()
	for i := 0; len(out) < hotStatements; i++ {
		dl := levels[i%len(levels)]
		out = append(out, p.drillAt(dl.d, dl.level, horizons[i/len(levels)%len(horizons)]))
	}
	return out
}

// timePoints renders one season of insert batches: every base series gets
// the seasonal-naive continuation of its history with 5 % noise, split
// into insertRows-row statements in ascending node order.
func (p *planner) timePoints() [][]string {
	period := p.g.Period
	if period < 1 {
		period = 1
	}
	out := make([][]string, period)
	for k := range out {
		for lo := 0; lo < len(p.g.BaseIDs); lo += insertRows {
			hi := min(lo+insertRows, len(p.g.BaseIDs))
			part := make(map[int]float64, hi-lo)
			for _, id := range p.g.BaseIDs[lo:hi] {
				vals := p.g.Node(id).Series.Values
				part[id] = math.Max(0, vals[len(vals)-period+k]*(1+0.05*p.rng.NormFloat64()))
			}
			out[k] = append(out[k], p.gen.InsertSQL(part))
		}
	}
	return out
}

// poisson draws an open-loop schedule of the given length at mixedReadRate:
// exponential gaps, each arrival hot with probability mixedHotShare.
func (p *planner) poisson(nanos int64, hot, total int) []arrival {
	var out []arrival
	for t := int64(0); ; {
		t += int64(p.rng.ExpFloat64() * 1e9 / mixedReadRate)
		if t >= nanos {
			return out
		}
		stmt := hot + p.rng.Intn(total-hot)
		if p.rng.Float64() < mixedHotShare {
			stmt = p.rng.Intn(hot)
		}
		out = append(out, arrival{due: t, stmt: int32(stmt)})
	}
}

// buildPlan renders the inputs of one workload. clients is the number of
// closed-loop clients; warmNanos and nanos are the lengths of the open-loop
// schedules of the warm-up and the timed phase.
func buildPlan(g *cube.Graph, name string, seed int64, clients int, warmNanos, nanos int64) *plan {
	p := newPlanner(g, seed)
	pl := &plan{}
	switch name {
	case wlReadHot:
		pl.stmts = p.hotSet()
		pl.hot = len(pl.stmts)
		for c := 0; c < clients; c++ {
			seq := make([]int32, 1<<16)
			for i := range seq {
				seq[i] = int32(p.rng.Intn(pl.hot))
			}
			pl.reads = append(pl.reads, seq)
		}
	case wlReadCold:
		// Every coldDrillEvery-th statement is a drill-down, round-robin
		// over the hierarchy levels and horizons like the hot set's, so
		// that what an average answer costs does not depend on the seed.
		levels := p.levels()
		for c := 0; c < clients; c++ {
			seq := make([]int32, coldPerClient)
			for i := range seq {
				seq[i] = int32(len(pl.stmts))
				if k := i / coldDrillEvery; i%coldDrillEvery == coldDrillEvery-1 {
					dl := levels[k%len(levels)]
					pl.stmts = append(pl.stmts, p.drillAt(dl.d, dl.level, horizons[k/len(levels)%len(horizons)]))
				} else {
					pl.stmts = append(pl.stmts, p.single())
				}
			}
			pl.reads = append(pl.reads, seq)
		}
	case wlIngest:
		pl.writes = p.timePoints()
	case wlMixedRW:
		pl.stmts = p.hotSet()
		pl.hot = len(pl.stmts)
		for i := 0; i < mixedColdStmts; i++ {
			pl.stmts = append(pl.stmts, p.single())
		}
		pl.writes = p.timePoints()
		pl.warmArrivals = p.poisson(warmNanos, pl.hot, len(pl.stmts))
		pl.arrivals = p.poisson(nanos, pl.hot, len(pl.stmts))
	}
	// The probe set comes from its own generator so that it does not
	// depend on how much of the stream the workload above consumed.
	q := newPlanner(g, seed^0x70726f6265)
	for i := 0; i < probeCount; i++ {
		if i < probeDrills {
			pl.probes = append(pl.probes, q.drill())
		} else {
			pl.probes = append(pl.probes, q.single())
		}
	}
	return pl
}

// hash fingerprints the plan: statement table, client sequences, insert
// season, arrival schedules and probe set. Equal seeds give equal hashes.
func (pl *plan) hash() uint64 {
	h := fnv.New64a()
	str := func(s string) { h.Write([]byte(s)); h.Write([]byte{0}) }
	num := func(v int64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, s := range pl.stmts {
		str(s)
	}
	for _, seq := range pl.reads {
		for _, i := range seq {
			num(int64(i))
		}
	}
	for _, tp := range pl.writes {
		for _, s := range tp {
			str(s)
		}
	}
	for _, as := range [][]arrival{pl.warmArrivals, pl.arrivals} {
		for _, a := range as {
			num(a.due)
			num(int64(a.stmt))
		}
	}
	for _, s := range pl.probes {
		str(s)
	}
	return h.Sum64()
}
