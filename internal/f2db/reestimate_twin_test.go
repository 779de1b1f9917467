package f2db_test

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cubefc/internal/f2db"
)

// TestEagerReestimateTwin: a re-fit is a function of the log, not of when a
// query arrived. Four engines loaded from the engine twin's image take the
// same time points under TimeBased{Every: 2}: one re-fits eagerly after each advance,
// one queries every node after each, one a seeded random few, and one stays
// idle. Afterwards every node's 4-step forecast is bit-identical on all
// four, and so are the models' health and the number of fits. Before a
// re-fit caught up from the model's invalidation generation, the idle
// engine disagreed with the busy one on every node of this cube.
func TestEagerReestimateTwin(t *testing.T) {
	_, img := twinCube()
	engines := make([]*f2db.DB, 4)
	for i := range engines {
		var err error
		if engines[i], err = f2db.LoadDatabase(bytes.NewReader(img), f2db.Options{Strategy: twinStrategy}); err != nil {
			t.Fatal(err)
		}
	}
	eager, busy, some := engines[0], engines[1], engines[2]
	nodes := eager.Graph().NumNodes()
	forecast := func(db *f2db.DB, id int) []float64 {
		fc, err := db.ForecastNode(id, 4)
		if err != nil {
			t.Fatal(err)
		}
		return fc
	}

	rng := rand.New(rand.NewSource(7))
	for tp := 0; tp < 6; tp++ {
		batch := make(map[int]float64)
		for i, id := range eager.Graph().BaseIDs() {
			batch[id] = float64(100 + 9*tp + 3*i + (i*tp)%5)
		}
		for _, db := range engines {
			if err := db.InsertBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		eager.ReestimateInvalid()
		for id := 0; id < nodes; id++ {
			forecast(busy, id)
			if rng.Intn(4) == 0 {
				forecast(some, id)
			}
		}
	}
	if eager.Metrics().Reestimations == 0 {
		t.Fatal("the eager engine re-fitted nothing")
	}
	for id := 0; id < nodes; id++ {
		want := forecast(eager, id)
		for i, db := range engines[1:] {
			got := forecast(db, id)
			for s := range want {
				if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
					t.Fatalf("node %d step %d: engine %d forecasts %v, the eager one %v", id, s+1, i+1, got, want)
				}
			}
		}
	}
	for _, db := range engines {
		db.ReestimateInvalid()
	}
	for i, db := range engines[1:] {
		if got, want := db.Health(), eager.Health(); !reflect.DeepEqual(got, want) {
			t.Fatalf("engine %d's model health differs from the eager engine's", i+1)
		}
		if got, want := db.Metrics().Reestimations, eager.Metrics().Reestimations; got != want {
			t.Fatalf("engine %d fitted %d times, the eager engine %d", i+1, got, want)
		}
	}
}
