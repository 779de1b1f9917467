package f2db

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/timeseries"
)

// benchEngine builds a moderate cube (3 products × 6 cities → 2 regions)
// and opens an engine over an advisor-selected configuration. The graph is
// big enough that query traffic spreads over many nodes, small enough that
// the advisor finishes quickly.
func benchEngine(b *testing.B, strategy InvalidationStrategy) (*DB, *cube.Graph) {
	b.Helper()
	return benchEngineOpts(b, Options{Strategy: strategy})
}

// benchEngineOpts is benchEngine with full Options control, so benchmarks
// can disable the plan cache and the forecast memo table individually.
func benchEngineOpts(b *testing.B, opts Options) (*DB, *cube.Graph) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	loc, err := cube.NewHierarchy("location", []string{"city", "region"},
		[]map[string]string{{"C1": "R1", "C2": "R1", "C3": "R1", "C4": "R2", "C5": "R2", "C6": "R2"}})
	if err != nil {
		b.Fatal(err)
	}
	dims := []cube.Dimension{cube.NewDimension("product", "product"), loc}
	var base []cube.BaseSeries
	for _, p := range []string{"P1", "P2", "P3"} {
		for _, c := range []string{"C1", "C2", "C3", "C4", "C5", "C6"} {
			vals := make([]float64, 48)
			level := 40 + 30*rng.Float64()
			for i := range vals {
				season := 1 + 0.3*math.Sin(2*math.Pi*float64(i%4)/4)
				vals[i] = level * season * (1 + 0.05*rng.NormFloat64())
			}
			base = append(base, cube.BaseSeries{Members: []string{p, c}, Series: timeseries.New(vals, 4)})
		}
	}
	g, err := cube.NewGraph(dims, base)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := core.Run(g, core.Options{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	db, err := Open(g, cfg, opts)
	if err != nil {
		b.Fatal(err)
	}
	return db, g
}

// BenchmarkForecastNodeSerial is the single-goroutine baseline.
func BenchmarkForecastNodeSerial(b *testing.B) {
	db, g := benchEngine(b, nil)
	n := g.NumNodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.ForecastNode(i%n, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForecastNodeParallel measures read throughput scaling: all
// goroutines issue forecast queries with no writer present. Under the
// seed's single mutex this cannot beat the serial path; under the
// reader/writer design it scales with cores.
func BenchmarkForecastNodeParallel(b *testing.B) {
	db, g := benchEngine(b, nil)
	n := g.NumNodes()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := rand.Int()
		for pb.Next() {
			i++
			if _, err := db.ForecastNode(i%n, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQuerySQLParallel exercises the full query processor (parse →
// rewrite → derive) concurrently.
func BenchmarkQuerySQLParallel(b *testing.B) {
	db, _ := benchEngine(b, nil)
	queries := []string{
		"SELECT time, SUM(m) FROM facts GROUP BY time AS OF now() + '2 steps'",
		"SELECT time, SUM(m) FROM facts WHERE region = 'R1' GROUP BY time AS OF now() + '1 step'",
		"SELECT time, m FROM facts WHERE product = 'P1' AND city = 'C4' AS OF now() + '3 steps'",
		"SELECT time, AVG(m) FROM facts WHERE product = 'P2' GROUP BY time AS OF now() + '2 steps'",
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := rand.Int()
		for pb.Next() {
			i++
			if _, err := db.Query(queries[i%len(queries)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMixedQueryInsertParallel runs parallel query goroutines against a
// steady background insert stream (one full maintenance batch per tick, so
// the writer load is identical across engine implementations). This is the
// scenario the reader/writer design targets: queries must not serialize
// behind maintenance.
func BenchmarkMixedQueryInsertParallel(b *testing.B) {
	db, g := benchEngine(b, nil)
	n := g.NumNodes()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			for _, id := range g.BaseIDs {
				if err := db.InsertBase(id, 50); err != nil {
					b.Error(err)
					return
				}
			}
		}
	}()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := rand.Int()
		for pb.Next() {
			i++
			if _, err := db.ForecastNode(i%n, 2); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
}

// benchQueries is the repeated-statement working set shared by the cached /
// uncached SQL benchmarks (same texts as BenchmarkQuerySQLParallel).
var benchQueries = []string{
	"SELECT time, SUM(m) FROM facts GROUP BY time AS OF now() + '2 steps'",
	"SELECT time, SUM(m) FROM facts WHERE region = 'R1' GROUP BY time AS OF now() + '1 step'",
	"SELECT time, m FROM facts WHERE product = 'P1' AND city = 'C4' AS OF now() + '3 steps'",
	"SELECT time, AVG(m) FROM facts WHERE product = 'P2' GROUP BY time AS OF now() + '2 steps'",
}

// BenchmarkQuerySQLCached measures the steady-state fast path on a single
// goroutine: every statement hits the plan cache, every forecast hits the
// memo table.
func BenchmarkQuerySQLCached(b *testing.B) {
	db, _ := benchEngine(b, nil)
	for _, q := range benchQueries { // warm both caches
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(benchQueries[i%len(benchQueries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuerySQLUncached is the same workload with both caches disabled:
// the full parse → rewrite → derive path on every statement. The gap to
// BenchmarkQuerySQLCached is the fast path's gain.
func BenchmarkQuerySQLUncached(b *testing.B) {
	db, _ := benchEngineOpts(b, Options{PlanCacheSize: -1, ForecastCacheSize: -1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(benchQueries[i%len(benchQueries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCacheThrash drives more distinct statement texts than the
// plan cache holds, so every access misses and evicts: the worst case pays
// the LRU bookkeeping on top of a full parse.
func BenchmarkPlanCacheThrash(b *testing.B) {
	db, _ := benchEngineOpts(b, Options{PlanCacheSize: 8})
	texts := make([]string, 32)
	horizons := []string{"1 step", "2 steps", "3 steps", "4 steps"}
	regions := []string{"R1", "R2"}
	aggs := []string{"SUM", "AVG"}
	cities := []string{"C1", "C6"}
	for i := range texts {
		if i%2 == 0 {
			texts[i] = "SELECT time, " + aggs[i/16] + "(m) FROM facts WHERE region = '" +
				regions[(i/2)%2] + "' GROUP BY time AS OF now() + '" + horizons[(i/4)%4] + "'"
		} else {
			texts[i] = "SELECT time, m FROM facts WHERE product = 'P" + string(rune('1'+i%3)) +
				"' AND city = '" + cities[(i/2)%2] + "' AS OF now() + '" + horizons[(i/4)%4] + "'"
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(texts[i%len(texts)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if h := db.Metrics().PlanCacheHits; h != 0 {
		b.Fatalf("thrash pattern hit the cache %d times", h)
	}
}

// BenchmarkInsertBase advances one full maintenance batch per op through
// the per-point API: one lock round-trip per base value.
func BenchmarkInsertBase(b *testing.B) {
	db, g := benchEngine(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range g.BaseIDs {
			if err := db.InsertBase(id, 50+float64(i%10)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkInsertBatch advances one full maintenance batch per op through
// InsertBatch: the engine write lock is taken once for the whole batch.
func BenchmarkInsertBatch(b *testing.B) {
	db, g := benchEngine(b, nil)
	batch := make(map[int]float64, len(g.BaseIDs))
	for _, id := range g.BaseIDs {
		batch[id] = 50
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.InsertBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertParallel is the write-path scaling benchmark: one full
// maintenance batch per op, driven by 1/2/4/8 concurrent writer goroutines
// over disjoint parts of the batch, all through the one pending lock. The
// advisor runs once; every sub-benchmark reopens the same snapshot so all
// variants insert into identical engines.
func BenchmarkInsertParallel(b *testing.B) {
	src, _ := benchEngine(b, nil)
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, src); err != nil {
		b.Fatal(err)
	}
	img := buf.Bytes()
	for _, writers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			db, err := LoadDatabase(bytes.NewReader(img), Options{})
			if err != nil {
				b.Fatal(err)
			}
			ids := db.Graph().BaseIDs()
			parts := make([]map[int]float64, writers)
			for i := range parts {
				parts[i] = make(map[int]float64)
			}
			for i, id := range ids {
				parts[i%writers][id] = 50 + float64(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errs := make([]error, writers)
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						errs[w] = db.InsertBatch(parts[w])
					}(w)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
