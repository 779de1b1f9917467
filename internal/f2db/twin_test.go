package f2db_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/datasets"
	"cubefc/internal/f2db"
	"cubefc/internal/segment"
	"cubefc/internal/wire"
)

// The engine twin (DESIGN.md §6): a seeded program of statements runs on an
// engine under test that takes every shortcut — durable over a MemFS,
// eight read-table entries, a graph that materializes on first touch, lazy
// re-fits under TimeBased{Every: 2} — and on a reference that takes none:
// no read table, every node resident, no disk, and queries skipped at
// random. Both must return the same errors and answer bytes, the same
// counts, and the same snapshot wherever neither holds an invalid model.
//
//	go test -run 'FuzzEngineTwin|TestEngineTwinConcurrent' ./internal/f2db/
//	go test -run xxx -fuzz FuzzEngineTwin -fuzztime 10s ./internal/f2db/

var (
	twinStrategy = f2db.TimeBased{Every: 2}
	twinOpts     = f2db.Options{Strategy: twinStrategy, PlanCacheSize: 8}
	twinDurable  = f2db.DurableOptions{Dir: "db", CompactEvery: 2, CheckpointEvery: 3}
)

// twinCube builds the image both engines of every program load: a cube of
// two d0 members by four d1 members, which roll up into two, of 36
// quarterly points, and the advisor's configuration over it at pinned γ.
// It returns the graph the image was saved from, whose node IDs the loaded
// engines share.
var twinCube = sync.OnceValues(func() (*cube.Graph, []byte) {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	g, err := datasets.GenCube(8, datasets.CubeGenOptions{DimCards: [][]int{{2}, {4, 2}}, Length: 36, Period: 4}).Graph()
	must(err)
	cfg, err := core.Run(g, core.Options{Seed: 5, FixedGamma: true, Gamma0: 0.5, MaxIterations: 30, Parallelism: 1})
	must(err)
	db, err := f2db.Open(g, cfg, f2db.Options{Strategy: twinStrategy})
	must(err)
	var img bytes.Buffer
	must(f2db.SaveDatabase(&img, db))
	return g, img.Bytes()
})

// twin is one program's pair of engines and the generator's state.
type twin struct {
	t   testing.TB
	rng *rand.Rand
	g   *cube.Graph
	fs  *segment.MemFS
	dur *f2db.Durable
	eut *f2db.DB // the engine under test
	ref *f2db.DB // the reference
	// pend is the generator's view of the pending column, by base ordinal,
	// and queries the program's pool of texts, which recur, so the read
	// table hits, evicts and goes stale. After a checkpoint a crash loses
	// nothing.
	pend         []bool
	queries      []string
	checkpointed bool
	trace        []string
}

func newTwin(t testing.TB, seed int64) *twin {
	g, img := twinCube()
	tw := &twin{t: t, rng: rand.New(rand.NewSource(seed)), g: g, fs: segment.NewMemFS(), pend: make([]bool, len(g.BaseIDs))}
	tw.open(func() (*f2db.DB, error) {
		return f2db.LoadDatabase(bytes.NewReader(img), twinOpts)
	})
	ref, err := f2db.LoadDatabase(bytes.NewReader(img), f2db.Options{Strategy: twinStrategy, PlanCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < g.NumNodes(); id++ {
		ref.Graph().NodeValues(id) // every node resident from the start
	}
	tw.ref = ref
	for range 14 {
		tw.queries = append(tw.queries, tw.queryText())
	}
	return tw
}

// open opens (or, after a crash, recovers) the engine under test.
func (tw *twin) open(build func() (*f2db.DB, error)) {
	d := twinDurable
	d.FS = tw.fs
	dur, err := f2db.OpenDurable(d, twinOpts, build)
	if err != nil {
		tw.fail("opening the engine under test: %v", err)
	}
	tw.dur, tw.eut = dur, dur.DB()
}

func (tw *twin) fail(format string, args ...any) {
	tw.t.Helper()
	tail := tw.trace[max(0, len(tw.trace)-8):]
	tw.t.Fatalf("%s\nafter %d statements, the last:\n  %s", fmt.Sprintf(format, args...), len(tw.trace), strings.Join(tail, "\n  "))
}

// counts is what both engines must agree on after every statement.
type counts struct{ inserts, batches, pending int }

func countsOf(db *f2db.DB) counts {
	s := db.Stats()
	return counts{s.Inserts, s.Batches, s.PendingInserts}
}

// step runs one statement of the program.
func (tw *twin) step() {
	switch k := tw.rng.Intn(20); {
	case k < 7:
		tw.insert()
	case k < 15:
		tw.query(tw.pickQuery(), tw.rng.Intn(2) == 0)
	case k == 15:
		tw.refitEagerly()
	case k == 16:
		tw.trace = append(tw.trace, "checkpoint")
		if err := tw.dur.Checkpoint(); err != nil {
			tw.fail("checkpoint: %v", err)
		}
		tw.checkpointed = true
		return
	case k == 17 && (tw.checkpointed || countsOf(tw.eut).pending == 0):
		tw.crash()
	case k == 18:
		tw.failedRotation()
	default:
		tw.barrier()
	}
	tw.checkpointed = false
}

// insert draws an INSERT — rows of the time point being collected, its
// completion with rows of the next, a whole time point, or a statement
// with a defect of one rejection class — and runs it on both engines.
func (tw *twin) insert() {
	free, held := tw.split()
	var ords []int
	defect := ""
	switch k := tw.rng.Intn(12); {
	case k < 3: // a few rows of the time point
		ords = free[:1+tw.rng.Intn(min(3, len(free)))]
	case k < 6: // the rest of it
		ords = free
	case k == 6: // the rest of it and rows of the next, which sort after it
		last := 0
		for _, ord := range free {
			last = max(last, tw.g.BaseIDs[ord])
		}
		ords = free
		for _, ord := range held {
			if tw.g.BaseIDs[ord] > last && len(ords) < len(free)+2 {
				ords = append(ords, ord)
			}
		}
	case k == 7: // a whole time point, as a coordinator sends one
		ords = append(free, held...)
	case k == 8: // a row twice
		ords = free[:1+tw.rng.Intn(min(3, len(free)))]
		ords = append(ords, ords[tw.rng.Intn(len(ords))])
	case k == 9 && len(held) > 0: // a row already pending
		ords = append(free[:tw.rng.Intn(min(3, len(free)))], held[0])
	default: // one defective row among good ones
		ords = free[:tw.rng.Intn(min(3, len(free))+1)]
		defect = [...]string{
			"('d0l0_9', 'd1l0_0', 1)", "('d0l0_0', 'd1l0_0', NaN)", "('d0l0_1', 'd1l0_1', Inf)", "('d0l0_0', 2)",
			"('d0l0_0', 'd1l0_0', 1, 2)", "('d0l0_1', 'd1l0_2', 1.2.3)", "()",
		}[tw.rng.Intn(7)]
	}
	rows := make([]string, 0, len(ords)+1)
	values := make(map[int]float64, len(ords))
	for _, ord := range ords {
		v := 20 + float64(tw.rng.Intn(4000))/100
		values[tw.g.BaseIDs[ord]] = v
		rows = append(rows, tw.row(ord, v))
	}
	if defect != "" {
		rows = append(rows, defect)
	}
	tw.rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	sql := "INSERT INTO facts VALUES " + strings.Join(rows, ", ")
	run := func(db *f2db.DB) error { return db.Exec(sql) }
	switch k := tw.rng.Intn(10); {
	case k < 2 && defect == "" && len(values) == len(ords):
		sql = "InsertBatch " + sql
		run = func(db *f2db.DB) error { return db.InsertBatch(values) }
	case k == 2:
		sql = strings.Replace(sql, "VALUES", "VALUE", 1)
	}
	tw.trace = append(tw.trace, sql)
	before := countsOf(tw.ref)
	errE, errR := run(tw.eut), run(tw.ref)
	if fmt.Sprint(errE) != fmt.Sprint(errR) {
		tw.fail("engine under test: %v\nreference:         %v", errE, errR)
	}
	tw.sameCounts()
	if errR == nil {
		tw.land(ords, before)
	} else if after := countsOf(tw.ref); after != before {
		tw.fail("a rejected statement (%v) moved the counts from %+v to %+v", errR, before, after)
	}
}

// split returns the base ordinals the generator's view holds free and
// pending, each in random order.
func (tw *twin) split() (free, held []int) {
	for _, ord := range tw.rng.Perm(len(tw.pend)) {
		if tw.pend[ord] {
			held = append(held, ord)
		} else {
			free = append(free, ord)
		}
	}
	if len(free) == 0 {
		tw.fail("the generator's view holds a whole time point pending")
	}
	return free, held
}

// row renders the INSERT row of a base series.
func (tw *twin) row(ord int, v float64) string {
	id := tw.g.BaseIDs[ord]
	return fmt.Sprintf("('%s', '%s', %s)", tw.g.CellOf(id, 0).Value, tw.g.CellOf(id, 1).Value, strconv.FormatFloat(v, 'f', -1, 64))
}

// land checks that accepted statements counted every one of their rows
// since the counts stood at before, and updates the generator's view: the
// rows land in ascending ID order, so when a time point completes, the last
// of them are what is pending.
func (tw *twin) land(ords []int, before counts) {
	after, n := countsOf(tw.ref), len(tw.pend)
	if after.inserts-before.inserts != len(ords) || (after.batches*n+after.pending)-(before.batches*n+before.pending) != len(ords) {
		tw.fail("%d rows moved the counts from %+v to %+v", len(ords), before, after)
	}
	slices.SortFunc(ords, func(a, b int) int { return tw.g.BaseIDs[a] - tw.g.BaseIDs[b] })
	if after.batches > before.batches {
		clear(tw.pend)
		ords = ords[len(ords)-after.pending:]
	}
	for _, ord := range ords {
		tw.pend[ord] = true
	}
}

// query runs a query on the engine under test and, when refToo, on the
// reference, and compares what both answered.
func (tw *twin) query(sql string, refToo bool) {
	tw.trace = append(tw.trace, sql)
	got, errE := tw.eut.Query(sql)
	if !refToo {
		return
	}
	want, errR := tw.ref.Query(sql)
	if fmt.Sprint(errE) != fmt.Sprint(errR) {
		tw.fail("%s\nengine under test: %v\nreference:         %v", sql, errE, errR)
	}
	if errR == nil && !bytes.Equal(wire.AppendResult(nil, got), wire.AppendResult(nil, want)) {
		tw.fail("%s\nengine under test: %+v\nreference:         %+v", sql, got.Groups, want.Groups)
	}
}

// pickQuery draws a text from the pool, one of the first three more often
// than not.
func (tw *twin) pickQuery() string {
	if tw.rng.Intn(3) > 0 {
		return tw.queries[tw.rng.Intn(3)]
	}
	return tw.queries[tw.rng.Intn(len(tw.queries))]
}

// queryText draws a query: a node or a drill-down, SUM or AVG, a horizon
// of one to four steps with or without an interval, history, EXPLAIN, and
// now and then a defect.
func (tw *twin) queryText() string {
	pick := func(s ...string) string { return s[tw.rng.Intn(len(s))] }
	where := pick("", " WHERE d0l0 = 'd0l0_0'", " WHERE d1l0 = 'd1l0_2'", " WHERE d1l1 = 'd1l1_1'",
		" WHERE d0l0 = 'd0l0_1' AND d1l0 = 'd1l0_0'")
	group := " GROUP BY time"
	switch {
	case tw.rng.Intn(2) == 0:
	case !strings.Contains(where, "d0l0"):
		group += ", d0l0"
	case !strings.Contains(where, "d1"):
		group += pick(", d1l0", ", d1l1")
	}
	asOf := ""
	if tw.rng.Intn(5) > 0 {
		asOf = pick(" AS OF now() + '1 step'", " AS OF now() + '2 steps'", " AS OF now() + '3 steps'", " AS OF now() + '4 steps'") +
			pick("", "", " WITH INTERVAL 95", " WITH INTERVAL 80")
	}
	sql := "SELECT time, " + pick("SUM(m)", "AVG(m)") + " FROM facts" + where + group + asOf
	switch tw.rng.Intn(10) {
	case 0:
		return "EXPLAIN " + sql
	case 1:
		return pick(strings.Replace(sql, "FROM", "FORM", 1), sql+" WHERE d1l1 = 'd1l1_9'",
			"SELECT time, SUM(m) FROM facts WHERE d0l0 = 'd0l0_0' GROUP BY time, d0l0",
			"SELECT time, SUM(m) FROM facts WHERE d1l0 = 'd1l0_9' GROUP BY time AS OF now() + '1 step'",
			"SELECT time, SUM(m) FROM facts GROUP BY time AS OF now() + '20000 steps'")
	}
	return sql
}

// refitEagerly re-fits the invalid models on one engine or both.
func (tw *twin) refitEagerly() {
	on := tw.rng.Intn(3)
	tw.trace = append(tw.trace, fmt.Sprintf("ReestimateInvalid on %s", [...]string{"the engine under test", "the reference", "both"}[on]))
	if on != 1 {
		tw.eut.ReestimateInvalid()
	}
	if on != 0 {
		tw.ref.ReestimateInvalid()
	}
}

// crash drops everything the engine under test did not make durable and
// recovers it from its directory.
func (tw *twin) crash() {
	tw.trace = append(tw.trace, "crash and reopen")
	tw.fs.Crash()
	tw.open(nil)
	tw.sameCounts()
}

// failedRotation checkpoints with a disk that takes the snapshot and then
// fails, so the log keeps batches the snapshot covers, and crashes: the
// reopened engine must skip them.
func (tw *twin) failedRotation() {
	tw.trace = append(tw.trace, "checkpoint whose WAL rotation fails")
	tw.fs.SetWriteLimit(int64(len(tw.snapshot(tw.eut))))
	err := tw.dur.Checkpoint()
	tw.fs.SetWriteLimit(-1)
	if err == nil {
		tw.fail("a checkpoint with room for its snapshot alone succeeded")
	}
	tw.crash()
}

// barrier compares the snapshots when neither engine holds an invalid
// model: both are then a function of the statements alone.
func (tw *twin) barrier() {
	if tw.eut.InvalidCount() > 0 || tw.ref.InvalidCount() > 0 {
		return
	}
	tw.trace = append(tw.trace, "barrier")
	if e, r := tw.snapshot(tw.eut), tw.snapshot(tw.ref); !bytes.Equal(e, r) {
		tw.fail("the snapshots differ (%d and %d bytes)", len(e), len(r))
	}
}

func (tw *twin) snapshot(db *f2db.DB) []byte {
	var b bytes.Buffer
	if err := f2db.SaveDatabase(&b, db); err != nil {
		tw.fail("snapshot: %v", err)
	}
	return b.Bytes()
}

func (tw *twin) sameCounts() {
	tw.t.Helper()
	if e, r := countsOf(tw.eut), countsOf(tw.ref); e != r {
		tw.fail("counts: engine under test %+v, reference %+v", e, r)
	}
}

// finish re-fits everything on both engines, compares their snapshots and
// checks that the reference's read table stayed off.
func (tw *twin) finish() {
	tw.eut.ReestimateInvalid()
	tw.ref.ReestimateInvalid()
	tw.barrier()
	if m := tw.ref.Metrics(); m.PlanCacheHits+m.PlanCacheMisses+m.ForecastCacheHits+m.ForecastCacheMisses != 0 || m.TableEntries != 0 {
		tw.fail("the reference's read table is off, yet it recorded traffic: %+v", m)
	}
}

// FuzzEngineTwin runs a program of 150 statements drawn from the seed.
func FuzzEngineTwin(f *testing.F) {
	for seed := range int64(10) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		tw := newTwin(t, seed)
		for range 150 {
			tw.step()
		}
		tw.finish()
	})
}

// TestEngineTwinConcurrent runs the twin's statements from several
// goroutines (run it with -race). In each phase four writers send disjoint
// rows of the time point being collected, which complete it in some phases,
// two readers query all along, and after its rows one writer checkpoints
// and another re-fits eagerly; the reference takes the same rows one
// statement after the other. These statements commute, so at
// the barrier after each phase both engines hold the same counts, answer
// every query of the pool alike and, when no model is invalid, save the
// same snapshot.
func TestEngineTwinConcurrent(t *testing.T) {
	const writers, readers = 4, 2
	tw := newTwin(t, 99)
	for phase := range 12 {
		free, _ := tw.split()
		if phase%3 != 2 {
			free = free[:tw.rng.Intn(len(free))]
		}
		rows := make([][]string, min(writers, len(free)))
		for i, ord := range free {
			rows[i%writers] = append(rows[i%writers], tw.row(ord, float64(20+tw.rng.Intn(40))))
		}
		queries := make([]string, 8)
		for i := range queries {
			queries[i] = tw.pickQuery()
		}
		var wg sync.WaitGroup
		errs := make([]error, writers)
		for w := range writers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if w < len(rows) {
					if errs[w] = tw.eut.Exec("INSERT INTO facts VALUES " + strings.Join(rows[w], ", ")); errs[w] != nil {
						return
					}
				}
				switch w {
				case 0:
					errs[w] = tw.dur.Checkpoint()
				case 1:
					tw.eut.ReestimateInvalid()
				}
			}()
		}
		for r := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range 24 {
					// Compared at the barrier; ForecastNode reads past the
					// read table.
					tw.eut.Query(queries[(r+i)%len(queries)])
					tw.eut.ForecastNode((r+i)%tw.g.NumNodes(), 1+i%4)
				}
			}()
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("phase %d, writer %d: %v", phase, w, err)
			}
		}
		tw.trace = append(tw.trace, fmt.Sprintf("phase %d: %d rows from %d writers", phase, len(free), len(rows)))
		before := countsOf(tw.ref)
		for _, r := range rows {
			if err := tw.ref.Exec("INSERT INTO facts VALUES " + strings.Join(r, ", ")); err != nil {
				t.Fatalf("phase %d: reference: %v", phase, err)
			}
		}
		tw.land(free, before)
		tw.sameCounts()
		for _, q := range tw.queries {
			tw.query(q, true)
		}
		if phase%4 == 3 {
			tw.ref.ReestimateInvalid()
		}
		tw.barrier()
		if countsOf(tw.eut).pending == 0 {
			tw.crash()
		}
	}
	tw.finish()
}
