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

// assertModelsCurrent verifies that no stale model survived a generation
// race. An engine re-fit trains on the full series at fit time and every
// later advance feeds the model exactly one Update, so a model the engine
// has re-estimated at least once must have consumed exactly graph.Length
// observations; a stale install — a clone fitted on a pre-advance snapshot
// slipping in after the generation bump — stays one short forever. Only
// valid once every model has been engine-re-fitted (advisor-built models
// start at the training length, not the graph length).
func assertModelsCurrent(t *testing.T, db *DB) {
	t.Helper()
	g := db.rLock()
	defer db.unlock(g)
	length := db.graph.Length
	for id, m := range db.cfg.Models {
		if n := observationsConsumed(m); n >= 0 && n != length {
			t.Errorf("node %d: %s consumed %d observations, graph has %d (stale install)", id, m.Name(), n, length)
		}
	}
}

// TestReestimateGenerationConflict forces the off-lock race window
// deterministically: a full batch advances time while a re-fit is in flight
// between its fit and its install. The protocol must drop the stale clone,
// count a generation retry and install a fit of the new series instead.
func TestReestimateGenerationConflict(t *testing.T) {
	db, _, cfg := testEngine(t, TimeBased{Every: 1})
	node := cfg.ModelIDs()[0]
	if err := db.InsertBatch(fullBatch(db, 0)); err != nil {
		t.Fatal(err)
	}
	if !db.invalid[node] {
		t.Fatal("Every=1 should have invalidated the model")
	}
	fired := false
	db.testHookBeforeInstall = func() {
		if fired {
			return
		}
		fired = true
		if err := db.InsertBatch(fullBatch(db, 1)); err != nil {
			t.Error(err)
		}
	}
	if !db.reestimateNode(node) {
		t.Fatal("reestimateNode gave up")
	}
	db.testHookBeforeInstall = nil

	if !fired {
		t.Fatal("install hook never ran")
	}
	m := db.Metrics()
	if m.ReestimateGenRetries != 1 {
		t.Fatalf("generation retries = %d, want 1", m.ReestimateGenRetries)
	}
	if m.Reestimations != 1 {
		t.Fatalf("reestimations = %d, want 1 (only the fresh fit installs)", m.Reestimations)
	}
	if db.invalid[node] {
		t.Fatal("model still invalid after the retried re-fit")
	}
	// The installed model must be the fresh fit, not the stale clone: a
	// stale install would be one observation behind the graph.
	if n := observationsConsumed(db.cfg.Models[node]); n >= 0 && n != db.graph.Length {
		t.Fatalf("model consumed %d observations, graph has %d (stale install)", n, db.graph.Length)
	}
}

// TestReestimateNodeSkipsValidModel: re-estimating a valid model is a no-op.
func TestReestimateNodeSkipsValidModel(t *testing.T) {
	db, g, _ := testEngine(t, nil)
	if !db.reestimateNode(g.TopID) {
		t.Fatal("reestimateNode on a valid model should report success")
	}
	if got := db.Metrics().Reestimations; got != 0 {
		t.Fatalf("reestimations = %d, want 0", got)
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
		Options{Strategy: TimeBased{Every: 1}, Parallelism: 4})
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

// TestOffLockReestimateStress is the twin-engine stress test of the off-lock
// protocol (run with -race): an eager engine — one that calls
// ReestimateInvalid after each advance — takes interleaved inserts from
// two workers, concurrent forecast queries and an extra re-estimation racer,
// while a lazy twin applies the same batches sequentially. The engines must
// agree on every stored series (no insert lost to a racing re-fit), the
// eager engine must quiesce with zero invalid models and no model may be a
// stale install. Model parameters are NOT compared across the twins: the
// racing engine may skip a superseded fit (generation conflict) that the
// sequential twin performed, which is correct but not bit-identical.
func TestOffLockReestimateStress(t *testing.T) {
	src, _, _ := testEngine(t, nil)
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, src); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	eager, err := LoadDatabase(bytes.NewReader(data),
		Options{Strategy: TimeBased{Every: 1}, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := LoadDatabase(bytes.NewReader(data), Options{Strategy: TimeBased{Every: 1}})
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
	// starts the next batch — its inserts race the in-flight off-lock
	// re-estimation, which is exactly the window under test.
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
				for eager.advanceGen.Load() < uint64(s+1) {
					time.Sleep(50 * time.Microsecond)
				}
				if refit {
					eager.ReestimateInvalid()
				}
			}
		}(w == 0, part)
	}
	// Query workers exercise the read path (and its lazy pre-fit) against
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
	// competing with the eager re-fits and the lazy query pre-fits.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			g := eager.rLock()
			ids := eager.invalidModelIDs()
			eager.unlock(g)
			eager.reestimateMany(ids)
			time.Sleep(100 * time.Microsecond)
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// The lazy twin applies the identical batches sequentially.
	for s := 0; s < steps; s++ {
		if err := lazy.InsertBatch(batches[s]); err != nil {
			t.Fatal(err)
		}
	}

	ev, lv := eager.Graph(), lazy.Graph()
	if ev.Length() != lv.Length() {
		t.Fatalf("graph lengths diverged: eager %d, lazy %d", ev.Length(), lv.Length())
	}
	for id := 0; id < numNodes; id++ {
		e, l := ev.NodeValues(id), lv.NodeValues(id)
		if len(e) != len(l) {
			t.Fatalf("node %d: series lengths %d vs %d", id, len(e), len(l))
		}
		for i := range e {
			if math.Abs(e[i]-l[i]) > 1e-9*(1+math.Abs(l[i])) {
				t.Fatalf("node %d step %d: eager %v != lazy %v (insert lost to a racing re-fit?)", id, i, e[i], l[i])
			}
		}
	}

	// Quiesce: a full query sweep clears any model left invalid by
	// exhausted generation retries, then no model may be stale.
	for id := 0; id < numNodes; id++ {
		fc, err := eager.ForecastNode(id, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range fc {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("node %d: non-finite forecast %v", id, fc)
			}
		}
	}
	if got := eager.InvalidCount(); got != 0 {
		t.Fatalf("%d models still invalid after the final sweep", got)
	}
	assertModelsCurrent(t, eager)
	if eager.Metrics().Reestimations == 0 {
		t.Fatal("stress run re-estimated nothing")
	}
}
