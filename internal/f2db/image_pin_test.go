package f2db_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"cubefc/internal/core"
	"cubefc/internal/datasets"
	"cubefc/internal/derivation"
	"cubefc/internal/f2db"
)

// TestImageBytesPinned pins the F2CFG001 configuration image and the
// F2SNP002 snapshot of one engine, by SHA-256. The configuration digests
// were recorded at commit 43d4758 — before a configuration's schemes and
// errors and the engine's per-model statistics moved from maps keyed by node
// ID to dense slices. The snapshot digests were re-recorded when the
// snapshot's magic became F2SNP002 and each model's invalid flag became the
// generation it was invalidated at; nothing else in the image moved. The
// advisor runs on the 1 089-node cube with pinned γ; creation times are
// wall-clock readings, so they are zeroed. The engine invalidates every model
// at each time point, advances one, re-fits the top node's sources through a
// query and holds half a batch pending, so the snapshot carries mixed
// maintenance state. The "resolved" case first drops 50 derived-only schemes,
// which Open backfills (Configuration.ResolveScheme).
func TestImageBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests were recorded on amd64; %s may round the model fits differently", runtime.GOARCH)
	}
	for _, c := range []struct {
		name             string
		drop             int
		config, snapshot string
	}{
		{"covered", 0,
			"42e25a1dee3500211f95021efed38b84b242ce98d3a000e08d621dc1af127b7c",
			"2d39fc9c5fee07d0056e6be962276ecdac796bf5fa5c1f68289a4b2f2790dcc3"},
		{"resolved", 50,
			"7d7e77b581aaa020dfe033e795a911eba9fccc3bf2f7e22be7e9bb4c745e9c63",
			"bb96385bad60f2daab2307d4fe672b1f40fcc4da02beb46bda89905b142a7167"},
	} {
		g, err := datasets.GenCube(1, datasets.CubeGenForNodes(1_000, 2)).Graph()
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := core.Run(g, core.Options{Seed: 1, FixedGamma: true, Gamma0: 0.5, MaxIterations: 12, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		cfg.CostSeconds = 0
		for id := range cfg.ModelSeconds {
			cfg.ModelSeconds[id] = 0
		}
		for id, dropped := 0, 0; id < g.NumNodes() && dropped < c.drop; id++ {
			if _, hasModel := cfg.Models[id]; !hasModel {
				cfg.SetScheme(derivation.Scheme{Target: id}, 0)
				dropped++
			}
		}
		var cimg bytes.Buffer
		if err := f2db.SaveConfiguration(&cimg, cfg); err != nil {
			t.Fatal(err)
		}
		db, err := f2db.Open(g, cfg, f2db.Options{Strategy: f2db.TimeBased{Every: 1}})
		if err != nil {
			t.Fatal(err)
		}
		full := make(map[int]float64, len(g.BaseIDs))
		for i, id := range g.BaseIDs {
			full[id] = 100 + float64(i%17)
		}
		if err := db.InsertBatch(full); err != nil {
			t.Fatal(err)
		}
		if _, err := db.ForecastNode(g.TopID, 3); err != nil {
			t.Fatal(err)
		}
		half := make(map[int]float64)
		for i, id := range g.BaseIDs[:len(g.BaseIDs)/2] {
			half[id] = 50 + float64(i%13)
		}
		if err := db.InsertBatch(half); err != nil {
			t.Fatal(err)
		}
		var simg bytes.Buffer
		if err := f2db.SaveDatabase(&simg, db); err != nil {
			t.Fatal(err)
		}
		digest := func(b []byte) string { s := sha256.Sum256(b); return hex.EncodeToString(s[:]) }
		if got := digest(cimg.Bytes()); got != c.config {
			t.Errorf("%s: configuration image SHA-256 %s, pinned %s", c.name, got, c.config)
		}
		if got := digest(simg.Bytes()); got != c.snapshot {
			t.Errorf("%s: snapshot SHA-256 %s, pinned %s", c.name, got, c.snapshot)
		}
	}
}
