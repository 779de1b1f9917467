package f2db_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/datasets"
	"cubefc/internal/f2db"
	"cubefc/internal/segment"
	"cubefc/internal/workload"
)

// TestResidentSetTwin: a serving engine holds its models, not its cube. An
// engine over a fresh graph (durable, so its initial snapshot and a
// checkpoint run too) and one over a graph that called MaterializeAll load
// one configuration image and take the same 10 time points under
// TimeBased{Every: 3}. After the eighth, every forecast, 95 % interval,
// Health entry and Explain plan agrees bit for bit, and the fresh graph has
// made resident exactly its base nodes and the non-base nodes that carry a
// model; after the tenth, so do the two engines a SaveDatabase →
// LoadDatabase round trip restores. The fresh graph's engine takes each
// time point from 8 concurrent writers in one case and from one writer in
// the other, the materialized one's sequentially.
func TestResidentSetTwin(t *testing.T) {
	d := datasets.Sales(1)
	ag, err := d.Graph()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := core.Run(ag, core.Options{Seed: 7, FixedGamma: true, Gamma0: 0.5, MaxIterations: 12, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := f2db.SaveConfiguration(&img, cfg); err != nil {
		t.Fatal(err)
	}
	gen := workload.New(ag, 0) // renders statements from the skeleton only
	rng := rand.New(rand.NewSource(11))
	batches := make([]map[int]float64, 10)
	for i := range batches {
		batches[i] = make(map[int]float64, len(ag.BaseIDs))
		for _, id := range ag.BaseIDs {
			batches[i][id] = 20 + 10*math.Sin(float64(i)) + rng.NormFloat64()
		}
	}

	// The case names are those of the pending column's former stripe layouts
	// (8 stripes, one stripe); on the one maintenance lock they vary the number of
	// concurrent writers that take each time point instead.
	for _, c := range []struct {
		name    string
		writers int
	}{{"stripes=8", 8}, {"stripes=-1", 1}} {
		t.Run(c.name, func(t *testing.T) {
			opts := f2db.Options{Strategy: f2db.TimeBased{Every: 3}}
			open := func(materialize bool) (*f2db.DB, *cube.Graph) {
				g, err := d.Graph()
				if err != nil {
					t.Fatal(err)
				}
				if materialize {
					g.MaterializeAll()
				}
				cfg, err := f2db.LoadConfiguration(bytes.NewReader(img.Bytes()), g)
				if err != nil {
					t.Fatal(err)
				}
				db, err := f2db.Open(g, cfg, opts)
				if err != nil {
					t.Fatal(err)
				}
				return db, g
			}
			var lg *cube.Graph
			dur, err := f2db.OpenDurable(f2db.DurableOptions{Dir: "db", FS: segment.NewMemFS()}, opts, func() (*f2db.DB, error) {
				db, g := open(false)
				lg = g
				return db, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			defer dur.Close()
			lazy, eager := dur.DB(), func() *f2db.DB { db, _ := open(true); return db }()

			for i, batch := range batches {
				var wg sync.WaitGroup
				parts := workload.SplitBatch(batch, c.writers)
				errs := make([]error, len(parts))
				for w, part := range parts {
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs[w] = lazy.InsertBatch(part)
					}()
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						t.Fatal(err)
					}
				}
				if err := eager.InsertBatch(batch); err != nil {
					t.Fatal(err)
				}
				if i != 7 {
					continue
				}
				if got, want := servedState(t, lazy, gen), servedState(t, eager, gen); got != want {
					t.Fatalf("after 8 advances the fresh graph's engine differs from the materialized one's: %s", firstDiff(got, want))
				}
				if err := dur.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				want := len(lg.BaseIDs)
				for _, id := range lazy.Configuration().ModelIDs() {
					if !lg.IsBase(id) {
						want++
					}
				}
				if got := lg.MaterializedNodes(); got != want {
					t.Fatalf("%d of %d nodes resident after serving, want %d: the bases and the non-base model nodes", got, lg.NumNodes(), want)
				}
			}

			reload := func(db *f2db.DB) *f2db.DB {
				var buf bytes.Buffer
				if err := f2db.SaveDatabase(&buf, db); err != nil {
					t.Fatal(err)
				}
				re, err := f2db.LoadDatabase(&buf, opts)
				if err != nil {
					t.Fatal(err)
				}
				return re
			}
			if got, want := servedState(t, reload(lazy), gen), servedState(t, reload(eager), gen); got != want {
				t.Fatalf("after a SaveDatabase → LoadDatabase round trip: %s", firstDiff(got, want))
			}
		})
	}
}

// servedState renders, with floats as bit patterns, what an engine serves:
// every node's 3-step forecast and its 95 % interval rows (statements
// rendered by gen), its Explain plan, and the Health of every model.
func servedState(t *testing.T, db *f2db.DB, gen *workload.Generator) string {
	t.Helper()
	var b strings.Builder
	g := db.Graph()
	for id := 0; id < g.NumNodes(); id++ {
		fc, err := db.ForecastNode(id, 3)
		if err != nil {
			t.Fatalf("ForecastNode(%d): %v", id, err)
		}
		fmt.Fprintf(&b, "%s:", g.NodeKey(id))
		for _, v := range fc {
			fmt.Fprintf(&b, " %x", math.Float64bits(v))
		}
		res, err := db.Query(gen.QuerySQL(id, 3) + " WITH INTERVAL 95")
		if err != nil {
			t.Fatalf("interval query for node %d: %v", id, err)
		}
		for _, r := range res.Rows {
			fmt.Fprintf(&b, " [%d %x %x %x]", r.T, math.Float64bits(r.Value), math.Float64bits(r.Lo), math.Float64bits(r.Hi))
		}
		fmt.Fprintf(&b, " | %s\n", db.Explain(id))
	}
	health := db.Health()
	keys := make([]string, 0, len(health))
	for k := range health {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h := health[k]
		fmt.Fprintf(&b, "health %s %s u=%d e=%x inv=%v\n", k, h.Family, h.UpdatesSinceFit, math.Float64bits(h.RollingError), h.Invalid)
	}
	return b.String()
}

// firstDiff names the first line on which two renderings disagree.
func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("%d lines vs %d", len(gl), len(wl))
}
