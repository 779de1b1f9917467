package f2db_test

import (
	"bytes"
	"fmt"
	"testing"

	"cubefc/internal/core"
	"cubefc/internal/datasets"
	"cubefc/internal/f2db"
	"cubefc/internal/wire"
	"cubefc/internal/workload"
)

// TestEagerReestimateTwin: an engine that calls ReestimateInvalid after each
// advance answers byte for byte like a lazy twin fed the same batches, as
// long as the lazy twin's queries re-fit every invalidated model before the
// next advance — here every node is queried in every window, so every model
// is re-fitted on the series of the same time point on both sides. This is
// the equivalence a driver that re-fits its reference engine eagerly while
// the served engines re-fit lazily relies on.
func TestEagerReestimateTwin(t *testing.T) {
	d := datasets.Tourism(1)
	g, err := d.Graph()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := core.Run(g, core.Options{Seed: 5, FixedGamma: true, Gamma0: 0.5, MaxIterations: 8, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := f2db.Options{Strategy: f2db.TimeBased{Every: 2}}
	src, err := f2db.Open(g, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := f2db.SaveDatabase(&snap, src); err != nil {
		t.Fatal(err)
	}
	load := func() *f2db.DB {
		db, err := f2db.LoadDatabase(bytes.NewReader(snap.Bytes()), opts)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	eager, lazy := load(), load()

	gen := workload.New(g, 1)
	var stmts []string
	for id := 0; id < g.NumNodes(); id++ {
		stmts = append(stmts, gen.QuerySQL(id, 1+id%3))
	}
	stmts = append(stmts,
		"SELECT time, SUM(m) FROM facts GROUP BY time, state AS OF now() + '2 steps' WITH INTERVAL 95",
		"SELECT time, SUM(m) FROM facts WHERE purpose = 'holiday' GROUP BY time, state AS OF now() + '4 steps'")

	refits := 0
	for tp := 0; tp < 8; tp++ {
		batch := make(map[int]float64)
		for i, id := range eager.Graph().BaseIDs() {
			batch[id] = float64(100 + 9*tp + 3*i)
		}
		for _, db := range []*f2db.DB{eager, lazy} {
			if err := db.InsertBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		refits += eager.ReestimateInvalid()
		for _, sql := range stmts {
			want, err := lazy.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eager.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wire.AppendResult(nil, got), wire.AppendResult(nil, want)) {
				t.Fatalf("time point %d: %s\neager %s\nlazy  %s", tp, sql, fmt.Sprint(got.Groups), fmt.Sprint(want.Groups))
			}
		}
	}
	if refits == 0 {
		t.Fatal("the eager engine re-fitted nothing: the twin compared two untouched engines")
	}
	if e, l := eager.Metrics().Reestimations, lazy.Metrics().Reestimations; e != l {
		t.Fatalf("eager engine re-fitted %d models, lazy twin %d", e, l)
	}
}
