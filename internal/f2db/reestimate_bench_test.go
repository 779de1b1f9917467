package f2db

import (
	"testing"
)

// invalidateAll marks every model as awaiting re-estimation, as an advance
// under TimeBased{Every: 1} does.
func invalidateAll(db *DB, ids []int) {
	db.mu.Lock()
	for _, id := range ids {
		o, _ := db.ordinal(id)
		db.invalidAt[o] = db.graph.Length
	}
	db.mu.Unlock()
}

// BenchmarkReestimateWarm measures one full re-estimation round over every
// model in the configuration: all models are invalidated, then re-fitted
// by refit under the maintenance lock (clone, fit seeded from the model's
// previous parameters, install).
func BenchmarkReestimateWarm(b *testing.B) {
	db, _ := benchEngineOpts(b, Options{Strategy: TimeBased{Every: 1}})
	ids := db.Configuration().ModelIDs()
	// Prime the warm path: the first round starts from advisor-fitted
	// parameters.
	db.maint.Lock()
	defer db.maint.Unlock()
	invalidateAll(db, ids)
	if _, err := db.refit(ids); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		invalidateAll(db, ids)
		if _, err := db.refit(ids); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertDuringReestimate measures insert latency while a
// background goroutine keeps re-fitting every model under the maintenance
// lock. Every insert statement takes that lock too, so each one waits for
// the fit in flight.
func BenchmarkInsertDuringReestimate(b *testing.B) {
	db, g := benchEngineOpts(b, Options{Strategy: TimeBased{Every: 1}})
	ids := db.Configuration().ModelIDs()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			db.maint.Lock()
			invalidateAll(db, ids)
			_, _ = db.refit(ids)
			db.maint.Unlock()
		}
	}()
	bases := g.BaseIDs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.InsertBase(bases[i%len(bases)], float64(50+i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-done
}
