package f2db

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"time"

	"cubefc/internal/forecast"
)

// observationsConsumed returns the number of observations a model has
// consumed (fit length plus updates since), or -1 when the family does not
// track it.
func observationsConsumed(m forecast.Model) int {
	if hw, ok := m.(*forecast.HoltWinters); ok {
		return hw.T
	}
	return -1
}

// assertModelsCurrent verifies that every model is fitted to the current
// series. An engine re-fit trains on the full series at fit time and every
// later advance feeds the model exactly one Update, so a model the engine
// has re-estimated at least once must have consumed exactly graph.Length
// observations; a stale install — a fit of a series some advance has since
// grown — stays one short forever. Only valid once every model has been
// engine-re-fitted (advisor-built models start at the training length, not
// the graph length).
func assertModelsCurrent(t *testing.T, db *DB) {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	length := db.graph.Length
	for id, m := range db.cfg.Models {
		if n := observationsConsumed(m); n >= 0 && n != length {
			t.Errorf("node %d: %s consumed %d observations, graph has %d (stale install)", id, m.Name(), n, length)
		}
	}
}

// TestAdvanceWaitsForRefit: while a re-fit holds the maintenance lock, a
// batch-completing insert statement waits for it, none of its rows landed,
// instead of voiding it, and readers keep answering from valid models. Once
// the lock is released the advance applies and every model is current.
func TestAdvanceWaitsForRefit(t *testing.T) {
	db, g, _ := testEngine(t, TimeBased{Every: 1})
	if err := db.InsertBatch(fullBatch(db, 0)); err != nil {
		t.Fatal(err)
	}
	if db.ReestimateInvalid() == 0 {
		t.Fatal("Every=1 should have invalidated the models")
	}
	length := db.Graph().Length()

	db.maint.Lock() // a re-fit in flight
	done := make(chan error, 1)
	go func() { done <- db.InsertBatch(fullBatch(db, 1)) }()
	time.Sleep(10 * time.Millisecond) // the statement reaches the lock
	for i := 0; i < 20; i++ {
		if n := db.batch.total.Load(); n != 0 {
			t.Fatalf("%d rows landed while the maintenance lock was held", n)
		}
		if _, err := db.Query("SELECT time, SUM(m) FROM facts GROUP BY time AS OF now() + '2 steps'"); err != nil {
			t.Fatal(err)
		}
		if _, err := db.ForecastNode(g.BaseIDs[i%len(g.BaseIDs)], 3); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			t.Fatalf("the batch advanced while the maintenance lock was held (err %v)", err)
		default:
		}
	}
	if got := db.Graph().Length(); got != length {
		t.Fatalf("length %d while the maintenance lock was held, want %d", got, length)
	}
	db.maint.Unlock()

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := db.Graph().Length(); got != length+1 {
		t.Fatalf("length %d after the advance, want %d", got, length+1)
	}
	assertModelsCurrent(t, db)
}

// TestReestimateNodeSkipsValidModel: re-estimating a valid engine is a
// no-op.
func TestReestimateInvalid(t *testing.T) {
	db, _, _ := testEngine(t, TimeBased{Every: 1})
	if err := db.InsertBatch(fullBatch(db, 0)); err != nil {
		t.Fatal(err)
	}
	n := db.InvalidCount()
	if n == 0 {
		t.Fatal("batch advance invalidated nothing under TimeBased{1}")
	}
	if got := db.ReestimateInvalid(); got != n {
		t.Fatalf("ReestimateInvalid re-fitted %d models, want %d", got, n)
	}
	if got := db.InvalidCount(); got != 0 {
		t.Fatalf("%d models still invalid after ReestimateInvalid", got)
	}
	// Idempotent when nothing is invalid.
	if got := db.ReestimateInvalid(); got != 0 {
		t.Fatalf("second ReestimateInvalid re-fitted %d models, want 0", got)
	}
}

func TestReestimateNodeSkipsValidModel(t *testing.T) {
	db, _, _ := testEngine(t, nil)
	if n := db.ReestimateInvalid(); n != 0 {
		t.Fatalf("ReestimateInvalid re-fitted %d models of a valid engine", n)
	}
	if got := db.Metrics().Reestimations; got != 0 {
		t.Fatalf("reestimations = %d, want 0", got)
	}
}

// TestReestimateAllocs is the allocation gate of the eager re-fit. Each fit
// warm-starts from its model's seed slot, sized at Open, so re-fitting the
// 11 models reads 79 objects; with the seed a stack array the interface call
// moved to the heap, it read 90, one more per model.
func TestReestimateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db, _, _ := testEngine(t, Never{})
	k := len(db.models)
	n := testing.AllocsPerRun(20, func() {
		db.maint.Lock()
		for o := range db.invalid {
			db.invalid[o] = true
		}
		db.maint.Unlock()
		if got := db.ReestimateInvalid(); got != k {
			t.Fatalf("ReestimateInvalid re-fitted %d of %d models", got, k)
		}
	})
	if k != 11 || n > 79 {
		t.Fatalf("re-fitting %d models allocates %v objects; want 11 models in at most 79", k, n)
	}
}

// TestEagerReestimate: ReestimateInvalid run right after the advance re-fits
// every model it invalidated — no query needed.
func TestEagerReestimate(t *testing.T) {
	src, _, _ := testEngine(t, nil)
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, src); err != nil {
		t.Fatal(err)
	}
	db, err := LoadDatabase(bytes.NewReader(buf.Bytes()),
		Options{Strategy: TimeBased{Every: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.InsertBatch(fullBatch(db, 0)); err != nil {
		t.Fatal(err)
	}
	db.ReestimateInvalid()
	if got := db.InvalidCount(); got != 0 {
		t.Fatalf("%d models still invalid after an eager advance", got)
	}
	if db.Metrics().Reestimations == 0 {
		t.Fatal("eager advance re-estimated nothing")
	}
	assertModelsCurrent(t, db)
}

// TestOffLockReestimateStress is the twin-engine stress test of re-fits
// racing the write and read paths (run with -race): an eager engine — one
// that calls ReestimateInvalid after each advance — takes interleaved
// inserts from two workers, concurrent forecast queries and an extra
// re-estimation racer, while a sequential twin applies the same batches and
// calls ReestimateInvalid after each. Every re-fit holds the maintenance
// lock, so each model is fitted exactly once per advance on the series of
// that advance, whoever fits it: the engines must agree bit for bit on
// every series, every model's maintenance state and every node's forecast.
func TestOffLockReestimateStress(t *testing.T) {
	src, _, _ := testEngine(t, nil)
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, src); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	eager, err := LoadDatabase(bytes.NewReader(data),
		Options{Strategy: TimeBased{Every: 1}})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := LoadDatabase(bytes.NewReader(data), Options{Strategy: TimeBased{Every: 1}})
	if err != nil {
		t.Fatal(err)
	}

	const steps = 5
	batches := make([]map[int]float64, steps)
	for s := range batches {
		batches[s] = fullBatch(eager, s)
	}
	baseIDs := eager.Graph().BaseIDs()
	half := len(baseIDs) / 2

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	// Two insert workers split every batch. Once the batch has advanced,
	// the first worker re-fits what it invalidated; the other immediately
	// starts the next batch — its inserts race the in-flight re-estimation,
	// which is exactly the window under test.
	for w, part := range [][]int{baseIDs[:half], baseIDs[half:]} {
		wg.Add(1)
		go func(refit bool, part []int) {
			defer wg.Done()
			for s := 0; s < steps; s++ {
				for _, id := range part {
					if err := eager.InsertBase(id, batches[s][id]); err != nil {
						errCh <- err
						return
					}
				}
				for eager.met.batches.Load() < int64(s+1) {
					time.Sleep(50 * time.Microsecond)
				}
				if refit {
					eager.ReestimateInvalid()
				}
			}
		}(w == 0, part)
	}
	// Query workers exercise the read path (and its lazy re-fit) against
	// the racing maintenance.
	numNodes := eager.Graph().NumNodes()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				if _, err := eager.ForecastNode((w*29+i*13)%numNodes, 2); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	// Extra re-estimation racer: repeatedly re-fits whatever is invalid,
	// competing with the eager re-fits and the lazy query re-fits.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			eager.ReestimateInvalid()
			time.Sleep(100 * time.Microsecond)
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// The twin applies the identical batches sequentially.
	for s := 0; s < steps; s++ {
		if err := twin.InsertBatch(batches[s]); err != nil {
			t.Fatal(err)
		}
		twin.ReestimateInvalid()
	}

	if got := eager.InvalidCount(); got != 0 {
		t.Fatalf("%d models still invalid after the last re-fit", got)
	}
	assertModelsCurrent(t, eager)
	if e, w := stateDigest(t, eager), stateDigest(t, twin); e != w {
		t.Fatalf("racing engine and sequential twin diverged: %s", digestDiff(e, w))
	}
	for id := 0; id < numNodes; id++ {
		e, err := eager.ForecastNode(id, 3)
		if err != nil {
			t.Fatal(err)
		}
		w, err := twin.ForecastNode(id, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := range e {
			if math.Float64bits(e[i]) != math.Float64bits(w[i]) {
				t.Fatalf("node %d step %d: racing engine %v, twin %v", id, i, e[i], w[i])
			}
		}
	}
	if eager.Metrics().Reestimations == 0 {
		t.Fatal("stress run re-estimated nothing")
	}
}

// TestConfigViewRace reads each model accessor of Configuration() on a
// goroutine of its own while a query sets off lazy re-fits, which install
// models into the map the accessors read. Run with -race: the accessors
// must take the read lock.
func TestConfigViewRace(t *testing.T) {
	db, _, _ := testEngine(t, TimeBased{Every: 1})
	view := db.Configuration()
	top := view.ModelIDs()[0]
	readers := []func(){
		func() { _ = view.NumModels() },
		func() { _ = view.ModelIDs() },
		func() { _ = view.ModelFamily(top) },
	}
	const q = "SELECT time, SUM(m) FROM facts GROUP BY time, region AS OF now() + '2 steps'"
	for round := 0; round < 3; round++ {
		if err := db.InsertBatch(fullBatch(db, round)); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		var wg sync.WaitGroup
		for _, read := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					read()
					select {
					case <-done:
						return
					default:
					}
				}
			}()
		}
		before := db.Metrics().Reestimations
		_, err := db.Query(q)
		close(done)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if db.Metrics().Reestimations == before {
			t.Fatalf("round %d: the query re-fitted no model", round)
		}
	}
}
