package f2db

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/datasets"
	"cubefc/internal/forecast"
	"cubefc/internal/segment"
)

// servingImages runs the advisor on the benchmark's serving cube
// (CubeGenForNodes(10_000, 2): 10 201 nodes, 6 889 base series) and opens
// an engine on it, returning the engine with its configuration and snapshot
// images.
func servingImages(t *testing.T) (db *DB, cfgImg, snapImg []byte) {
	t.Helper()
	g := servingGraph(t)
	cfg, err := core.Run(g, core.Options{Seed: 1, FixedGamma: true, Gamma0: 0.5, MaxIterations: 12, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if db, err = Open(g, cfg, Options{}); err != nil {
		t.Fatal(err)
	}
	var c, s bytes.Buffer
	if err := SaveConfiguration(&c, cfg); err != nil {
		t.Fatal(err)
	}
	if err := SaveDatabase(&s, db); err != nil {
		t.Fatal(err)
	}
	return db, c.Bytes(), s.Bytes()
}

func servingGraph(t *testing.T) *cube.Graph {
	t.Helper()
	g, err := datasets.GenCube(1, datasets.CubeGenForNodes(10_000, 2)).Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// mallocs counts the heap allocations of one call of f.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestImageAllocs gates the codec's allocations on the serving cube:
// SaveDatabase renders into one buffer, so its allocations do not grow
// with the base count, and each load — onto a fresh graph, key index
// included — allocates well under half of what the gob images it replaces
// did (LoadDatabase 139 129 objects, LoadConfiguration 65 554). The
// budgets sit below what one more allocation per node would cost.
func TestImageAllocs(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("allocation counts need the full, race-free build")
	}
	db, cfgImg, snapImg := servingImages(t)
	small, _, _ := testEngine(t, nil)
	saveAllocs := func(db *DB) uint64 {
		return mallocs(func() {
			if err := SaveDatabase(&bytes.Buffer{}, db); err != nil {
				t.Fatal(err)
			}
		})
	}
	save, saveSmall := saveAllocs(db), saveAllocs(small)
	load := mallocs(func() {
		if _, err := LoadDatabase(bytes.NewReader(snapImg), Options{}); err != nil {
			t.Fatal(err)
		}
	})
	g := servingGraph(t)
	loadCfg := mallocs(func() {
		if _, err := LoadConfiguration(bytes.NewReader(cfgImg), g); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("SaveDatabase %d objects (%d on the 8-base test cube), LoadDatabase %d, LoadConfiguration %d; snapshot %d bytes, configuration %d bytes",
		save, saveSmall, load, loadCfg, len(snapImg), len(cfgImg))
	if save > saveSmall+16 {
		t.Errorf("SaveDatabase: %d objects on 6 889 base series, %d on 8", save, saveSmall)
	}
	if load > 20_000 {
		t.Errorf("LoadDatabase: %d objects, budget 20 000", load)
	}
	if loadCfg > 15_000 {
		t.Errorf("LoadConfiguration: %d objects, budget 15 000", loadCfg)
	}
}

// TestSnapshotBitFlipsRefused flips every bit of testEngine's image, one
// at a time: each load must fail, not panic and not load a different
// engine. A well-framed image the checksums cannot catch — a Holt-Winters
// model saved with period 0 — must be refused too, where it once loaded
// and divided by zero at the first forecast.
func TestSnapshotBitFlipsRefused(t *testing.T) {
	db, _, _ := testEngine(t, nil)
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, db); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	load := func(img []byte) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		db, err := LoadDatabase(bytes.NewReader(img), Options{})
		if err == nil {
			_, err = db.ForecastNode(db.graph.TopID, 2)
			return fmt.Errorf("loaded (first forecast: %v)", err)
		}
		return nil
	}
	flipped := make([]byte, len(img))
	for off := range img {
		for bit := range 8 {
			copy(flipped, img)
			flipped[off] ^= 1 << bit
			if err := load(flipped); err != nil {
				t.Fatalf("bit %d of byte %d of %d flipped: %v", bit, off, len(img), err)
			}
		}
	}
	var hw *forecast.HoltWinters
	for _, id := range db.cfg.ModelIDs() {
		if m, ok := db.cfg.Models[id].(*forecast.HoltWinters); ok {
			hw = m
			break
		}
	}
	if hw == nil {
		t.Fatal("testEngine's configuration holds no Holt-Winters model")
	}
	hw.Period, hw.Season = 0, nil
	buf.Reset()
	if err := SaveDatabase(&buf, db); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDatabase(&buf, Options{}); err == nil || !strings.Contains(err.Error(), "hw period 0") {
		t.Fatalf("an image whose Holt-Winters model has period 0: %v", err)
	}
}

// TestImagesRefuseOldFormat: a snapshot and a configuration in the gob
// format earlier versions wrote (testdata, saved from testEngine by the
// last version that wrote gob) are refused with an error naming the
// format — through LoadDatabase, LoadConfiguration and OpenDurable's
// recovery of a snapshot.db — and an image of the other kind, or an
// F2SNP001 snapshot, is refused by its magic.
func TestImagesRefuseOldFormat(t *testing.T) {
	snap, err := os.ReadFile("testdata/gob-snapshot.db")
	if err != nil {
		t.Fatal(err)
	}
	cfgImg, err := os.ReadFile("testdata/gob-config.cfg")
	if err != nil {
		t.Fatal(err)
	}
	db, g, cfg := testEngine(t, nil)
	refused := func(what string, err error, words ...string) {
		t.Helper()
		for _, w := range words {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Fatalf("%s: %v, want an error naming %s", what, err, w)
			}
		}
	}
	const gob = `format "gob" is not this version's`
	_, err = LoadDatabase(bytes.NewReader(snap), Options{})
	refused("gob snapshot", err, gob, `"`+snapshotMagic+`"`)
	_, err = LoadConfiguration(bytes.NewReader(cfgImg), g)
	refused("gob configuration", err, gob, `"`+configMagic+`"`)

	fs := segment.NewMemFS()
	if err := fs.MkdirAll("db"); err != nil {
		t.Fatal(err)
	}
	if err := segment.WriteFileSync(fs, "db", snapshotFileName, snap); err != nil {
		t.Fatal(err)
	}
	_, err = OpenDurable(DurableOptions{Dir: "db", FS: fs}, Options{}, nil)
	refused("gob snapshot.db", err, snapshotFileName, gob)

	var c bytes.Buffer
	if err := SaveConfiguration(&c, cfg); err != nil {
		t.Fatal(err)
	}
	_, err = LoadDatabase(&c, Options{})
	refused("a configuration as a snapshot", err, `format "`+configMagic+`" is not this version's "`+snapshotMagic+`"`)

	// An F2SNP001 snapshot recorded whether a model was invalid, not since
	// when: its catch-up cannot be replayed, so it is refused by name.
	var s bytes.Buffer
	if err := SaveDatabase(&s, db); err != nil {
		t.Fatal(err)
	}
	_, _, body, _ := segment.ReadRecord(s.Bytes(), 0)
	old := append(segment.AppendRecord(nil, segment.RecHeader, []byte("F2SNP001")), s.Bytes()[body:]...)
	_, err = LoadDatabase(bytes.NewReader(old), Options{})
	refused("an F2SNP001 snapshot", err, `format "F2SNP001" is not this version's "F2SNP002"`)
}
