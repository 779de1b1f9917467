package workload

import (
	"context"
	"net"
	"testing"
	"time"

	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/datasets"
	"cubefc/internal/f2db"
	"cubefc/internal/server"
)

func testDB(t *testing.T) (*f2db.DB, *Generator, *cube.Graph) {
	t.Helper()
	ds := datasets.GenX(1, 60)
	g, err := ds.Graph()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := core.Run(g, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	db, err := f2db.Open(g, cfg, f2db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db, New(g, 1), g
}

func TestNextBatchCoversAllBases(t *testing.T) {
	db, gen, _ := testDB(t)
	batch := gen.NextBatch()
	if len(batch) != db.Graph().NumBase() {
		t.Fatalf("batch size = %d, want %d", len(batch), db.Graph().NumBase())
	}
	for id, v := range batch {
		if !db.Graph().IsBase(id) {
			t.Fatal("batch contains non-base node")
		}
		if v < 0 {
			t.Fatal("negative insert value")
		}
	}
}

func TestQuerySQLIsParsable(t *testing.T) {
	db, gen, _ := testDB(t)
	for i := 0; i < 20; i++ {
		node := gen.RandomNode()
		sql := gen.QuerySQL(node, 2)
		res, err := db.Query(sql)
		if err != nil {
			t.Fatalf("generated query %q failed: %v", sql, err)
		}
		if res.Node != node {
			t.Fatalf("query %q resolved to node %d, want %d", sql, res.Node, node)
		}
	}
}

func TestRunCounts(t *testing.T) {
	db, gen, _ := testDB(t)
	res, err := Run(db, gen, Options{TimePoints: 2, QueriesPerInsert: 3})
	if err != nil {
		t.Fatal(err)
	}
	wantInserts := 2 * db.Graph().NumBase()
	if res.Inserts != wantInserts {
		t.Fatalf("inserts = %d, want %d", res.Inserts, wantInserts)
	}
	if res.Queries != 3*wantInserts {
		t.Fatalf("queries = %d, want %d", res.Queries, 3*wantInserts)
	}
	if res.AvgQueryTime <= 0 {
		t.Fatal("avg query time not measured")
	}
	if db.Stats().Batches != 2 {
		t.Fatalf("batches = %d, want 2", db.Stats().Batches)
	}
}

func TestRunViaSQL(t *testing.T) {
	db, gen, _ := testDB(t)
	res, err := Run(db, gen, Options{TimePoints: 1, QueriesPerInsert: 1, UseSQL: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries == 0 {
		t.Fatal("no queries executed")
	}
}

// TestRunHotMix: with HotQueries set and HotFraction 1, every query comes
// from the fixed hot set, so the engine's plan cache sees at most
// HotQueries distinct statements no matter how many queries run — the
// read-heavy recurring mix the coordinator's result cache targets. The
// draw stream stays deterministic: two same-seed runs issue the same
// statements in the same order.
func TestRunHotMix(t *testing.T) {
	db, gen, g := testDB(t)
	opts := Options{
		TimePoints:       2,
		QueriesPerInsert: 4,
		UseSQL:           true,
		HotQueries:       3,
		HotFraction:      1,
	}
	res, err := Run(db, gen, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != 2*4*db.Graph().NumBase() {
		t.Fatalf("queries = %d, want %d", res.Queries, 2*4*db.Graph().NumBase())
	}
	if m := db.Metrics(); m.PlanCacheMisses > int64(opts.HotQueries) {
		t.Fatalf("hot mix produced %d distinct plans, want <= %d", m.PlanCacheMisses, opts.HotQueries)
	}

	// Same seed, same options → identical draw stream (the property the
	// twin comparisons rely on), including a mixed hot/cold fraction.
	mixed := Options{HotQueries: 3, HotFraction: 0.7}
	genA, genB := New(g, 99), New(g, 99)
	hotA, hotB := buildHotSet(genA, mixed), buildHotSet(genB, mixed)
	for i := 0; i < 200; i++ {
		if hotA.next(genA, i) != hotB.next(genB, i) {
			t.Fatalf("draw %d diverged; hot mix not deterministic per seed", i)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	_, _, g := testDB(t)
	a := New(g, 7)
	b := New(g, 7)
	for i := 0; i < 10; i++ {
		if a.RandomNode() != b.RandomNode() {
			t.Fatal("generator not deterministic per seed")
		}
	}
}

func TestSplitBatchPartition(t *testing.T) {
	db, gen, _ := testDB(t)
	batch := gen.NextBatch()
	for _, n := range []int{1, 3, 8, len(batch), len(batch) + 5} {
		parts := SplitBatch(batch, n)
		total := 0
		seen := make(map[int]bool)
		for _, part := range parts {
			if len(part) == 0 {
				t.Fatalf("n=%d: empty part emitted", n)
			}
			for id, v := range part {
				if seen[id] {
					t.Fatalf("n=%d: node %d in two parts", n, id)
				}
				seen[id] = true
				if v != batch[id] {
					t.Fatalf("n=%d: node %d value %v != %v", n, id, v, batch[id])
				}
				total++
			}
		}
		if total != len(batch) {
			t.Fatalf("n=%d: parts cover %d values, want %d", n, total, len(batch))
		}
	}
	_ = db
}

func TestRunParallelWriters(t *testing.T) {
	db, gen, _ := testDB(t)
	res, err := Run(db, gen, Options{TimePoints: 3, QueriesPerInsert: 1, InsertWriters: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantInserts := 3 * db.Graph().NumBase()
	if res.Inserts != wantInserts {
		t.Fatalf("inserts = %d, want %d", res.Inserts, wantInserts)
	}
	if db.Stats().Batches != 3 {
		t.Fatalf("batches = %d, want 3 (parallel streams must complete each advance)", db.Stats().Batches)
	}
	if db.Stats().PendingInserts != 0 {
		t.Fatalf("pending = %d after run", db.Stats().PendingInserts)
	}
}

// TestRunRemote drives the workload over the wire protocol against an
// in-process server and checks it performs the same work the local mode
// would: every insert lands (batches complete, nothing pending) and every
// query is answered.
func TestRunRemote(t *testing.T) {
	db, gen, _ := testDB(t)
	srv := server.New(db, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		<-done
	}()

	opts := Options{
		TimePoints:       3,
		QueriesPerInsert: 2,
		InsertWriters:    2,
		RemoteAddr:       ln.Addr().String(),
		RemoteReaders:    3,
	}
	res, err := Run(nil, gen, opts)
	if err != nil {
		t.Fatal(err)
	}
	numBase := db.Graph().NumBase()
	if res.Inserts != opts.TimePoints*numBase {
		t.Fatalf("Inserts = %d, want %d", res.Inserts, opts.TimePoints*numBase)
	}
	if want := opts.TimePoints * opts.QueriesPerInsert * numBase; res.Queries != want {
		t.Fatalf("Queries = %d, want %d", res.Queries, want)
	}
	st := db.Stats()
	if st.Inserts != opts.TimePoints*numBase || st.PendingInserts != 0 {
		t.Fatalf("engine absorbed %d inserts (%d pending), want %d (0 pending)",
			st.Inserts, st.PendingInserts, opts.TimePoints*numBase)
	}
	if st.Batches != opts.TimePoints {
		t.Fatalf("Batches = %d, want %d", st.Batches, opts.TimePoints)
	}
	if res.TotalTime <= 0 || res.AvgQueryTime <= 0 {
		t.Fatalf("timings not populated: %+v", res)
	}
}

// TestPhasedHotMix exercises Options.Phases: the hot set splits into
// disjoint contiguous slices and each time point's queries draw from one
// slice only, giving every template a deterministic recurring spike/trough
// schedule.
func TestPhasedHotMix(t *testing.T) {
	_, _, g := testDB(t)
	opts := Options{HotQueries: 8, HotFraction: 1, Phases: 4}
	gen := New(g, 11)
	hot := buildHotSet(gen, opts)
	if hot.phases != 4 {
		t.Fatalf("phases = %d, want 4", hot.phases)
	}

	// Each phase draws only from its own hot-set slice, and the slices
	// partition the set.
	sliceOf := make(map[int]int, len(hot.nodes))
	for i, n := range hot.nodes {
		p := i * hot.phases / len(hot.nodes)
		if q, ok := sliceOf[n]; ok && q != p {
			// A node drawn into two slices can legally appear in either;
			// skip the containment check for it.
			sliceOf[n] = -1
			continue
		}
		sliceOf[n] = p
	}
	for tp := 0; tp < 40; tp++ {
		n := hot.next(gen, tp)
		if p := sliceOf[n]; p != -1 && p != tp%hot.phases {
			t.Fatalf("tp %d drew node %d from phase %d, want phase %d", tp, n, p, tp%hot.phases)
		}
	}

	// Same seed and options → identical phased draw stream.
	genA, genB := New(g, 5), New(g, 5)
	hotA, hotB := buildHotSet(genA, opts), buildHotSet(genB, opts)
	for i := 0; i < 200; i++ {
		if hotA.next(genA, i) != hotB.next(genB, i) {
			t.Fatalf("draw %d diverged; phased mix not deterministic per seed", i)
		}
	}

	// Phases above the hot-set size clamp; 0 and 1 keep the flat mix.
	wide := buildHotSet(New(g, 1), Options{HotQueries: 3, Phases: 9})
	if wide.phases != 3 {
		t.Fatalf("phases = %d, want clamp to 3", wide.phases)
	}
	flat := buildHotSet(New(g, 1), Options{HotQueries: 3, Phases: 1})
	for i := 0; i < 50; i++ {
		// With phases <= 1 every draw may come from the whole set; just
		// assert it never panics and stays in the hot set under frac=1.
		_ = flat.next(New(g, int64(i)), i)
	}
}
