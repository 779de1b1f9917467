package coord

import (
	"testing"

	"cubefc/internal/f2db"
)

// The coordinator read-path benchmarks. All shards are in-process loopback
// servers, so the uncached numbers measure protocol + shard-hop cost without
// real network latency — the cache's advantage over a LAN hop is strictly
// larger than measured here.

// benchQuery is a 2-member drill-down: a miss is one shard request.
const benchQuery = "SELECT time, SUM(sales) FROM facts GROUP BY time, region AS OF now() + '2 steps'"

// benchCluster builds a 2-shard loopback cluster behind a coordinator with
// the given result-cache capacity (0 = caching off).
func benchCluster(b *testing.B, cacheSize int) *Coordinator {
	g, data := buildCube(b)
	s0 := startShardOn(b, data, "127.0.0.1:0")
	s1 := startShardOn(b, data, "127.0.0.1:0")
	b.Cleanup(func() { s0.stop(b) })
	b.Cleanup(func() { s1.stop(b) })
	opts := testCoordOpts(b)
	opts.CacheSize = cacheSize
	opts.Logf = nil
	co, err := New(f2db.NewPlanner(g, 0), []string{s0.addr, s1.addr}, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = co.Close() })
	return co
}

// BenchmarkCoordQueryUncached is the baseline: every repetition of the hot
// statement re-routes and crosses the wire to a shard.
func BenchmarkCoordQueryUncached(b *testing.B) {
	co := benchCluster(b, 0)
	if _, err := co.Query(benchQuery); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := co.Query(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoordQueryCached repeats the identical statement with the read
// fast path on: after the first fill every repetition is a cache hit that
// never touches a shard.
func BenchmarkCoordQueryCached(b *testing.B) {
	co := benchCluster(b, 64)
	if _, err := co.Query(benchQuery); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := co.Query(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoordMixedRW interleaves one Exec per 16 operations with a
// 4-statement hot set: each write bumps the epoch and invalidates, the
// next round of queries refills — the steady-state cost of a read-heavy
// mix under live writes.
func BenchmarkCoordMixedRW(b *testing.B) {
	co := benchCluster(b, 64)
	queries := []string{
		benchQuery,
		"SELECT time, sales FROM facts WHERE product = 'P1' AND city = 'C1'",
		"SELECT time, SUM(sales) FROM facts",
		"SELECT time, SUM(sales) FROM facts WHERE region = 'R1' AS OF now() + '1 steps'",
	}
	for _, q := range queries {
		if _, err := co.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	v := 0
	for i := 0; i < b.N; i++ {
		if i%16 == 15 {
			v++
			if err := co.Exec(batchInsertSQL(v)); err != nil {
				b.Fatal(err)
			}
			continue
		}
		if _, err := co.Query(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}
