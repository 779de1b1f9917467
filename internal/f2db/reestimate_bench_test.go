package f2db

import (
	"testing"
)

// BenchmarkReestimateWarm measures one full re-estimation round over every
// model in the configuration: all models are invalidated, then re-fitted
// through the off-lock protocol (clone, fit seeded from the model's previous
// parameters, generation-checked install).
func BenchmarkReestimateWarm(b *testing.B) {
	db, _ := benchEngineOpts(b, Options{Strategy: TimeBased{Every: 1}})
	ids := db.Configuration().ModelIDs()
	// Prime the warm path: the first round starts from advisor-fitted
	// parameters.
	g := db.wLock()
	for _, id := range ids {
		db.invalid[id] = true
	}
	db.unlock(g)
	db.reestimateMany(ids)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := db.wLock()
		for _, id := range ids {
			db.invalid[id] = true
		}
		db.unlock(g)
		db.reestimateMany(ids)
	}
}

// BenchmarkInsertDuringReestimate measures insert latency while a
// background goroutine keeps the off-lock re-estimation pipeline busy —
// the scenario the off-lock protocol exists for: before it, every re-fit
// held the exclusive engine lock and stalled the write path for the whole
// parameter search.
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
			gd := db.wLock()
			for _, id := range ids {
				db.invalid[id] = true
			}
			db.unlock(gd)
			db.reestimateMany(ids)
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
