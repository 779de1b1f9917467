package f2db_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"cubefc/internal/core"
	"cubefc/internal/datasets"
	"cubefc/internal/f2db"
	"cubefc/internal/segment"
	"cubefc/internal/wire"
)

// TestSnapshotKeepsMaintenanceState: under TimeBased{Every: 2}, two time
// points leave every model awaiting re-estimation. An engine reopened from a
// snapshot — through LoadDatabase, and through a checkpoint, a crash and
// OpenDurable — must report the Health the live engine reports, and then
// answer the next forecast query, which re-estimates lazily, with the bytes
// the live engine answers it with. A snapshot that dropped the models'
// maintenance state restarted every model fresh and valid, and answered
// from the stale parameters.
func TestSnapshotKeepsMaintenanceState(t *testing.T) {
	d := datasets.Tourism(1)
	opts := f2db.Options{Strategy: f2db.TimeBased{Every: 2}}
	build := func() (*f2db.DB, error) {
		g, err := d.Graph()
		if err != nil {
			return nil, err
		}
		cfg, err := core.Run(g, core.Options{Seed: 5, FixedGamma: true, Gamma0: 0.5, MaxIterations: 8, Parallelism: 1})
		if err != nil {
			return nil, err
		}
		return f2db.Open(g, cfg, opts)
	}
	advance := func(t *testing.T, db *f2db.DB) {
		t.Helper()
		for k := 0; k < 2; k++ {
			batch := make(map[int]float64)
			for i, id := range db.Graph().BaseIDs() {
				batch[id] = float64(100 + 7*k + i)
			}
			if err := db.InsertBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	const q = "SELECT SUM(m) FROM facts AS OF now() + '2 steps'"
	same := func(t *testing.T, re, live *f2db.DB) {
		t.Helper()
		lh := live.Health()
		invalid := 0
		for _, h := range lh {
			if h.Invalid {
				invalid++
			}
		}
		if invalid == 0 {
			t.Fatal("no model awaits re-estimation after two time points under TimeBased{Every: 2}")
		}
		if rh := re.Health(); !reflect.DeepEqual(rh, lh) {
			for key, h := range lh {
				if rh[key] != h {
					t.Fatalf("reopened engine's health of %s is %+v, live %+v", key, rh[key], h)
				}
			}
			t.Fatalf("reopened engine's health %v, live %v", rh, lh)
		}
		answer := func(db *f2db.DB) []byte {
			res, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			return wire.AppendResult(nil, res)
		}
		if got, want := answer(re), answer(live); !bytes.Equal(got, want) {
			t.Fatalf("%s: reopened engine answers %x, live %x", q, got, want)
		}
	}

	t.Run("LoadDatabase", func(t *testing.T) {
		live, err := build()
		if err != nil {
			t.Fatal(err)
		}
		advance(t, live)
		var buf bytes.Buffer
		if err := f2db.SaveDatabase(&buf, live); err != nil {
			t.Fatal(err)
		}
		re, err := f2db.LoadDatabase(&buf, opts)
		if err != nil {
			t.Fatal(err)
		}
		same(t, re, live)
	})
	t.Run("checkpoint crash reopen", func(t *testing.T) {
		fs := segment.NewMemFS()
		dopts := f2db.DurableOptions{Dir: "db", FS: fs}
		dur, err := f2db.OpenDurable(dopts, opts, build)
		if err != nil {
			t.Fatal(err)
		}
		live := dur.DB()
		advance(t, live)
		if err := dur.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		fs.Crash()
		re, err := f2db.OpenDurable(dopts, opts, func() (*f2db.DB, error) {
			return nil, fmt.Errorf("a checkpointed directory must not be rebuilt")
		})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		same(t, re.DB(), live)
	})
}

// TestResolvedSchemeSurvivesReload: a node without a scheme is resolved once,
// when the engine opens, and from then on it is tracked like every other
// scheme. An exact run of the 1 089-node cube has 50 derived-only schemes
// dropped; every node's forecast must read the same bits before and after a
// SaveDatabase/LoadDatabase round trip, and no query may take the lazy
// re-estimation path to resolve a scheme. When the first query resolved the scheme, it
// kept its training-window weight until a reload tracked it, and every
// dropped node answered differently after the reload.
func TestResolvedSchemeSurvivesReload(t *testing.T) {
	g, err := datasets.GenCube(1, datasets.CubeGenForNodes(1_000, 2)).Graph()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := core.Run(g, core.Options{Seed: 1, FixedGamma: true, Gamma0: 0.5, MaxIterations: 12, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for id := 0; id < g.NumNodes() && dropped < 50; id++ {
		if _, hasModel := cfg.Models[id]; !hasModel {
			delete(cfg.Schemes, id)
			delete(cfg.Errors, id)
			dropped++
		}
	}
	if dropped < 50 {
		t.Fatalf("only %d derived-only nodes to drop", dropped)
	}
	db, err := f2db.Open(g, cfg, f2db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	forecasts := func(db *f2db.DB) [][]float64 {
		out := make([][]float64, g.NumNodes())
		for id := range out {
			if out[id], err = db.ForecastNode(id, 3); err != nil {
				t.Fatalf("ForecastNode(%d): %v", id, err)
			}
		}
		return out
	}
	before := forecasts(db)
	var img bytes.Buffer
	if err := f2db.SaveDatabase(&img, db); err != nil {
		t.Fatal(err)
	}
	loaded, err := f2db.LoadDatabase(&img, f2db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	after, differ := forecasts(loaded), 0
	for id := range before {
		for h := range before[id] {
			if math.Float64bits(before[id][h]) != math.Float64bits(after[id][h]) {
				differ++
				t.Logf("node %d step %d: %v before the reload, %v after", id, h, before[id][h], after[id][h])
				break
			}
		}
	}
	if differ != 0 {
		t.Errorf("%d nodes answer differently after a reload", differ)
	}
	if n := db.Metrics().ForecastCacheBypasses; n != 0 {
		t.Errorf("%d queries took the lazy re-estimation path to resolve a scheme", n)
	}
}
