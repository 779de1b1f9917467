package f2db

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
)

// twinEngines clones one engine into two identical, independent instances:
// one with the read table on, one with it off. Divergence between the two
// after identical inserts and queries would mean the table served stale
// state.
func twinEngines(t *testing.T, strategy InvalidationStrategy) (cached, plain *DB) {
	t.Helper()
	src, _, _ := testEngine(t, nil)
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, src); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	cached, err := LoadDatabase(bytes.NewReader(data), Options{Strategy: strategy})
	if err != nil {
		t.Fatal(err)
	}
	plain, err = LoadDatabase(bytes.NewReader(data), Options{Strategy: strategy, PlanCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	return cached, plain
}

// fullBatch builds a complete insert batch with round-dependent values.
func fullBatch(db *DB, round int) map[int]float64 {
	ids := db.Graph().BaseIDs()
	out := make(map[int]float64, len(ids))
	for i, id := range ids {
		out[id] = 40 + float64(round)*3 + float64(i)*0.25
	}
	return out
}

// sameRows compares two query results within floating-point tolerance
// (insert batches are applied in map order, so sums may differ in the last
// ulps between engines).
func sameRows(t *testing.T, got, want *Result) {
	t.Helper()
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("group count %d != %d", len(got.Groups), len(want.Groups))
	}
	for gi := range got.Groups {
		gr, wr := got.Groups[gi].Rows, want.Groups[gi].Rows
		if len(gr) != len(wr) {
			t.Fatalf("group %d: row count %d != %d", gi, len(gr), len(wr))
		}
		for i := range gr {
			if gr[i].T != wr[i].T {
				t.Fatalf("group %d row %d: t=%d != %d", gi, i, gr[i].T, wr[i].T)
			}
			for _, pair := range [][2]float64{
				{gr[i].Value, wr[i].Value}, {gr[i].Lo, wr[i].Lo}, {gr[i].Hi, wr[i].Hi},
			} {
				diff := math.Abs(pair[0] - pair[1])
				scale := math.Max(1, math.Max(math.Abs(pair[0]), math.Abs(pair[1])))
				if diff/scale > 1e-6 {
					t.Fatalf("group %d row %d: %v != %v (cached vs plain)", gi, i, gr[i], wr[i])
				}
			}
		}
	}
}

func TestCacheNormalizeSQL(t *testing.T) {
	a := NormalizeSQL("SELECT  time,\tSUM(m)\n FROM facts")
	b := NormalizeSQL("SELECT time, SUM(m) FROM facts")
	if a != b {
		t.Fatalf("whitespace variants key differently: %q vs %q", a, b)
	}
	// Case is significant (member values are case-sensitive).
	if NormalizeSQL("WHERE city = 'C1'") == NormalizeSQL("WHERE city = 'c1'") {
		t.Fatal("normalization must not fold case")
	}
}

func TestCachePlanReuse(t *testing.T) {
	db, _, _ := testEngine(t, nil)
	q := "SELECT time, SUM(m) FROM facts WHERE region = 'R1' GROUP BY time AS OF now() + '2 steps'"
	r1, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// Same statement with different whitespace must hit the cached plan.
	r2, err := db.Query("SELECT  time,  SUM(m)  FROM facts WHERE region = 'R1' GROUP BY time AS OF now() + '2 steps'")
	if err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.PlanCacheMisses != 1 || m.PlanCacheHits != 1 {
		t.Fatalf("plan cache hits=%d misses=%d, want 1/1", m.PlanCacheHits, m.PlanCacheMisses)
	}
	if m.TableEntries != 1 {
		t.Fatalf("read table size = %d, want 1", m.TableEntries)
	}
	sameRows(t, r2, r1)
	// A table hit allocates only the Result it hands out: the Result, its
	// Groups and its rows — 3; a plan hit on a memoized forecast was 4
	// before the plan cache and the memo became one table.
	if n := testing.AllocsPerRun(200, func() { _, _ = db.Query(q) }); n > 3 {
		t.Fatalf("table-hit Query allocates %v times, want <= 3", n)
	}
	// Parse errors are not cached.
	if _, err := db.Query("SELECT FROM nothing"); err == nil {
		t.Fatal("malformed query must error")
	}
	if got := db.Metrics().TableEntries; got != 1 {
		t.Fatalf("error result was cached: size = %d", got)
	}
}

func TestCacheForecastMemoHit(t *testing.T) {
	db, _, _ := testEngine(t, nil)
	const q = "SELECT time, SUM(m) FROM facts AS OF now() + '3 steps'"
	r1, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the returned rows must not corrupt the table's answer.
	orig := append([]QueryRow(nil), r1.Rows...)
	r1.Rows[0].Value = -1e9
	r2, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r2.Rows, orig) {
		t.Fatalf("cached answer corrupted: %v != %v", r2.Rows, orig)
	}
	m := db.Metrics()
	if m.ForecastCacheMisses != 1 || m.ForecastCacheHits != 1 {
		t.Fatalf("read table hits=%d misses=%d, want 1/1", m.ForecastCacheHits, m.ForecastCacheMisses)
	}
	if m.Queries != 2 {
		t.Fatalf("queries = %d, want 2 (hits still count as queries)", m.Queries)
	}
	if m.QueryLatency.Count != 2 {
		t.Fatalf("latency count = %d, want 2", m.QueryLatency.Count)
	}
	// Distinct horizons and confidence levels are distinct statements.
	for _, q := range []string{
		"SELECT time, SUM(m) FROM facts AS OF now() + '4 steps'",
		"SELECT time, SUM(m) FROM facts AS OF now() + '3 steps' WITH INTERVAL 90",
	} {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Metrics().ForecastCacheMisses; got != 3 {
		t.Fatalf("misses = %d, want 3 after a new horizon and an interval", got)
	}
}

func TestCacheEpochInvalidationOnInsert(t *testing.T) {
	cached, plain := twinEngines(t, nil)
	queries := []string{
		"SELECT time, SUM(m) FROM facts GROUP BY time AS OF now() + '2 steps'",
		"SELECT time, m FROM facts WHERE product = 'P1' AND city = 'C1' AS OF now() + '1 step'",
		"SELECT time, AVG(m) FROM facts WHERE region = 'R2' GROUP BY time AS OF now() + '2 steps' WITH INTERVAL 90",
	}
	for round := 0; round < 4; round++ {
		// Warm the caches, then advance time on both engines.
		for _, q := range queries {
			if _, err := cached.Query(q); err != nil {
				t.Fatal(err)
			}
		}
		batch := fullBatch(cached, round)
		if err := cached.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := plain.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		// Every post-insert answer must match the uncached twin: serving a
		// memoized pre-insert forecast would diverge immediately.
		for _, q := range queries {
			rc, err := cached.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := plain.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, rc, rp)
		}
	}
	m := cached.Metrics()
	if m.ForecastCacheHits == 0 {
		t.Fatal("warm-up repeats never hit the memo table")
	}
	if m.EpochBumps == 0 {
		t.Fatal("insert batches bumped no generations")
	}
	if m.BatchInserts != 4 {
		t.Fatalf("batch inserts = %d, want 4", m.BatchInserts)
	}
}

func TestCacheBypassOnLazyReestimate(t *testing.T) {
	db, _, _ := testEngine(t, TimeBased{Every: 1})
	const q = "SELECT time, SUM(m) FROM facts AS OF now() + '2 steps'"
	// Advance time once: Every=1 invalidates every model.
	if err := db.InsertBatch(fullBatch(db, 0)); err != nil {
		t.Fatal(err)
	}
	if db.InvalidCount() == 0 {
		t.Fatal("expected invalidated models after the batch")
	}
	before := db.Metrics()
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	after := db.Metrics()
	if after.ForecastCacheBypasses != before.ForecastCacheBypasses+1 {
		t.Fatalf("bypasses %d -> %d, want +1", before.ForecastCacheBypasses, after.ForecastCacheBypasses)
	}
	if after.ForecastCacheMisses != before.ForecastCacheMisses {
		t.Fatalf("lazy re-estimation counted as a miss (%d -> %d)",
			before.ForecastCacheMisses, after.ForecastCacheMisses)
	}
	if after.Queries != before.Queries+1 {
		t.Fatalf("queries %d -> %d, want +1: a bypassed attempt is not an answer", before.Queries, after.Queries)
	}
	if after.Reestimations == before.Reestimations {
		t.Fatal("query did not trigger lazy re-estimation")
	}
	if after.EpochBumps <= before.EpochBumps {
		t.Fatal("re-estimation bumped no generation")
	}
	// The re-estimated answer was stored under the new generation: the
	// next call is a plain hit.
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	if got := db.Metrics().ForecastCacheHits; got != after.ForecastCacheHits+1 {
		t.Fatalf("post-re-estimation hit not served from cache (hits %d -> %d)",
			after.ForecastCacheHits, got)
	}
}

// TestCacheConcurrentEpochCorrectness interleaves read-table queries with
// InsertBatch writers and the lazy re-fits TimeBased{3} sets off (run with
// -race) and, after every round's barrier, asserts the table-on engine
// agrees with a table-off twin that applied the same batches — i.e. no
// stale answer survives a time advance or a re-fit.
func TestCacheConcurrentEpochCorrectness(t *testing.T) {
	cached, plain := twinEngines(t, TimeBased{Every: 3})
	queries := []string{
		"SELECT time, SUM(m) FROM facts GROUP BY time AS OF now() + '2 steps'",
		"SELECT time, SUM(m) FROM facts WHERE region = 'R1' GROUP BY time AS OF now() + '1 step'",
		"SELECT time, AVG(m) FROM facts WHERE city = 'C2' GROUP BY time AS OF now() + '3 steps' WITH INTERVAL 95",
		"SELECT time, m FROM facts WHERE product = 'P2' AND city = 'C3' AS OF now() + '2 steps'",
	}
	for round := 0; round < 5; round++ {
		batch := fullBatch(cached, round)
		var wg sync.WaitGroup
		errCh := make(chan error, 16)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if _, err := cached.Query(queries[(w+i)%len(queries)]); err != nil {
						errCh <- err
						return
					}
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cached.InsertBatch(batch); err != nil {
				errCh <- err
			}
		}()
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
		if err := plain.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		// Barrier: both engines now hold identical state; answers must
		// agree even though the cached engine memoized mid-round results.
		for _, q := range queries {
			rc, err := cached.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := plain.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, rc, rp)
		}
	}
	m := cached.Metrics()
	if m.Batches != 5 {
		t.Fatalf("batches = %d, want 5", m.Batches)
	}
	if m.PlanCacheHits == 0 || m.ForecastCacheHits == 0 {
		t.Fatalf("fast path never engaged: %+v", m)
	}
}

func TestCacheInsertBatchSemantics(t *testing.T) {
	db, g, _ := testEngine(t, nil)
	lenBefore := db.Graph().Length()

	// A full batch advances time exactly once.
	if err := db.InsertBatch(fullBatch(db, 0)); err != nil {
		t.Fatal(err)
	}
	if got := db.Graph().Length(); got != lenBefore+1 {
		t.Fatalf("length = %d, want %d", got, lenBefore+1)
	}
	if db.Stats().PendingInserts != 0 {
		t.Fatal("pending values after a complete batch")
	}

	// A partial batch stays pending; completing it via InsertBase advances.
	partial := fullBatch(db, 1)
	last := g.BaseIDs[len(g.BaseIDs)-1]
	lastVal := partial[last]
	delete(partial, last)
	if err := db.InsertBatch(partial); err != nil {
		t.Fatal(err)
	}
	if db.Stats().PendingInserts != len(g.BaseIDs)-1 {
		t.Fatalf("pending = %d, want %d", db.Stats().PendingInserts, len(g.BaseIDs)-1)
	}
	// Duplicates against the open batch are rejected.
	if err := db.InsertBatch(map[int]float64{g.BaseIDs[0]: 1}); err == nil {
		t.Fatal("duplicate value in open batch must error")
	}
	if err := db.InsertBase(last, lastVal); err != nil {
		t.Fatal(err)
	}
	if got := db.Graph().Length(); got != lenBefore+2 {
		t.Fatalf("length = %d, want %d", got, lenBefore+2)
	}

	// Non-base IDs are rejected before anything is applied.
	if err := db.InsertBatch(map[int]float64{g.TopID: 1}); err == nil {
		t.Fatal("non-base node must error")
	}
	if err := db.InsertBatch(map[int]float64{-1: 1}); err == nil {
		t.Fatal("out-of-range node must error")
	}

	m := db.Metrics()
	if m.Inserts != int64(2*len(g.BaseIDs)) {
		t.Fatalf("inserts = %d, want %d", m.Inserts, 2*len(g.BaseIDs))
	}
	if m.Batches != 2 {
		t.Fatalf("batches = %d, want 2", m.Batches)
	}
}

func TestCacheSQLMultiRowInsert(t *testing.T) {
	db, g, _ := testEngine(t, nil)
	lenBefore := db.Graph().Length()
	// testEngine's cube: products P1,P2 × cities C1..C4 → 8 base series.
	stmt := "INSERT INTO facts VALUES "
	first := true
	for _, p := range []string{"P1", "P2"} {
		for _, c := range []string{"C1", "C2", "C3", "C4"} {
			if !first {
				stmt += ", "
			}
			first = false
			stmt += fmt.Sprintf("('%s', '%s', 47.5)", p, c)
		}
	}
	if err := db.Exec(stmt); err != nil {
		t.Fatal(err)
	}
	if got := db.Graph().Length(); got != lenBefore+1 {
		t.Fatalf("multi-row INSERT did not advance time: length %d, want %d", got, lenBefore+1)
	}
	m := db.Metrics()
	if m.BatchInserts != 1 {
		t.Fatalf("batch inserts = %d, want 1 (statement should take the batched path)", m.BatchInserts)
	}
	if m.Inserts != int64(len(g.BaseIDs)) {
		t.Fatalf("inserts = %d, want %d", m.Inserts, len(g.BaseIDs))
	}
	// A duplicate row within one statement is rejected up front.
	if err := db.Exec("INSERT INTO facts VALUES ('P1', 'C1', 1), ('P1', 'C1', 2)"); err == nil {
		t.Fatal("duplicate row in one statement must error")
	}
	// Unknown members reject the whole statement before any value lands.
	if err := db.Exec("INSERT INTO facts VALUES ('P1', 'C1', 1), ('NOPE', 'C2', 2)"); err == nil {
		t.Fatal("unknown member must error")
	}
	if db.Stats().PendingInserts != 0 {
		t.Fatal("rejected statement left pending values")
	}
}

func TestCacheDisabled(t *testing.T) {
	src, g, _ := testEngine(t, nil)
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, src); err != nil {
		t.Fatal(err)
	}
	db, err := LoadDatabase(&buf, Options{PlanCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	q := "SELECT time, SUM(m) FROM facts GROUP BY time AS OF now() + '2 steps'"
	for i := 0; i < 3; i++ {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.ForecastNode(g.TopID, 2); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.PlanCacheHits+m.PlanCacheMisses+m.ForecastCacheHits+m.ForecastCacheMisses != 0 {
		t.Fatalf("a disabled table recorded traffic: %+v", m)
	}
	if m.TableEntries != 0 {
		t.Fatalf("a disabled table holds entries: %+v", m)
	}
	if m.Queries == 0 {
		t.Fatal("queries not answered with caches disabled")
	}
}

func TestCacheThrashEviction(t *testing.T) {
	src, _, _ := testEngine(t, nil)
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, src); err != nil {
		t.Fatal(err)
	}
	db, err := LoadDatabase(&buf, Options{PlanCacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT time, SUM(m) FROM facts GROUP BY time AS OF now() + '1 step'",
		"SELECT time, SUM(m) FROM facts GROUP BY time AS OF now() + '2 steps'",
		"SELECT time, SUM(m) FROM facts GROUP BY time AS OF now() + '3 steps'",
	}
	// Three distinct texts cycling through a 2-entry LRU: every access
	// misses and evicts, yet answers stay correct.
	for pass := 0; pass < 3; pass++ {
		for _, q := range queries {
			if _, err := db.Query(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	m := db.Metrics()
	if m.PlanCacheHits != 0 {
		t.Fatalf("thrash pattern should never hit, got %d hits", m.PlanCacheHits)
	}
	if m.PlanCacheMisses != 9 {
		t.Fatalf("misses = %d, want 9", m.PlanCacheMisses)
	}
	if m.TableEvictions != 7 {
		t.Fatalf("evictions = %d, want 7 (9 inserts into 2 slots)", m.TableEvictions)
	}
	if m.TableEntries != 2 {
		t.Fatalf("size = %d, want 2", m.TableEntries)
	}
}
