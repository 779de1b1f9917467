package server

import (
	"context"
	"testing"
	"time"

	"cubefc/internal/cube"
	"cubefc/internal/fclient"
	"cubefc/internal/workload"
)

// benchClient stands up a loopback server over the bench engine and
// returns a pooled client against it. Everything is torn down by b.Cleanup.
func benchClient(b *testing.B, poolSize int) (*fclient.Client, *cube.Graph) {
	b.Helper()
	db, _, g := twinEngines(b)
	srv, addr, done := startServer(b, db, Options{})
	cl, err := fclient.Dial(addr, fclient.Options{PoolSize: poolSize})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		cl.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	})
	return cl, g
}

// BenchmarkRemoteQuery measures one forecast query round trip over a
// loopback TCP connection — the wire-protocol overhead on top of the
// in-process BenchmarkQuerySQLCached path (the statement is answered from the
// engine's read table after the first execution).
func BenchmarkRemoteQuery(b *testing.B) {
	cl, g := benchClient(b, 1)
	gen := workload.New(g, 1)
	sql := gen.QuerySQL(g.TopID, 2)
	if _, err := cl.Query(sql); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteQueryParallel issues the same cached query from
// concurrent goroutines over a 4-connection pool — pipelining amortizes
// the round-trip latency that dominates BenchmarkRemoteQuery.
func BenchmarkRemoteQueryParallel(b *testing.B) {
	cl, g := benchClient(b, 4)
	gen := workload.New(g, 1)
	sql := gen.QuerySQL(g.TopID, 2)
	if _, err := cl.Query(sql); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := cl.Query(sql); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRemoteInsert executes one full-batch multi-row INSERT per op
// over loopback: every op delivers a value for each base series and
// completes one maintenance batch advance — the remote analogue of
// BenchmarkInsertBatch.
func BenchmarkRemoteInsert(b *testing.B) {
	cl, g := benchClient(b, 1)
	gen := workload.New(g, 1)
	sql := gen.InsertSQL(gen.NextBatch())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Exec(sql); err != nil {
			b.Fatal(err)
		}
	}
}
