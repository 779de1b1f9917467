package sibyl_test

// Integration tests wiring the self-forecasting engine to a real f2db
// engine, as the daemons do. They live in an external test package: sibyl
// itself must stay free of f2db imports (the tiers attach it through their
// one-method telemetry interfaces), and these tests would otherwise create
// the cycle the design avoids.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/f2db"
	"cubefc/internal/sibyl"
	"cubefc/internal/timeseries"
)

// buildSnapshot builds the twin-test cube (2 products × 4 cities → 2
// regions, 36 seasonal points), runs the advisor, and returns the
// serialized database every engine under test loads — identical starting
// state for twins.
func buildSnapshot(t testing.TB) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	loc, err := cube.NewHierarchy("location", []string{"city", "region"},
		[]map[string]string{{"C1": "R1", "C2": "R1", "C3": "R2", "C4": "R2"}})
	if err != nil {
		t.Fatal(err)
	}
	dims := []cube.Dimension{cube.NewDimension("product", "product"), loc}
	var base []cube.BaseSeries
	for _, p := range []string{"P1", "P2"} {
		for _, c := range []string{"C1", "C2", "C3", "C4"} {
			vals := make([]float64, 36)
			level := 30 + 20*rng.Float64()
			for i := range vals {
				season := 1 + 0.25*math.Sin(2*math.Pi*float64(i%4)/4)
				vals[i] = level * season * (1 + 0.05*rng.NormFloat64())
			}
			base = append(base, cube.BaseSeries{Members: []string{p, c}, Series: timeseries.New(vals, 4)})
		}
	}
	g, err := cube.NewGraph(dims, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := core.Run(g, core.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	src, err := f2db.Open(g, cfg, f2db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f2db.SaveDatabase(&buf, src); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func loadTwin(t testing.TB, data []byte, opts f2db.Options) *f2db.DB {
	t.Helper()
	db, err := f2db.LoadDatabase(bytes.NewReader(data), opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// fullBatch renders one complete insert batch with round-dependent values.
func fullBatch(db *f2db.DB, round int) map[int]float64 {
	ids := db.Graph().BaseIDs()
	out := make(map[int]float64, len(ids))
	for i, id := range ids {
		out[id] = 40 + float64(round)*3 + float64(i)*0.25
	}
	return out
}

// baseQueries renders one forecast template per base pair at the given
// horizon.
func baseQueries(horizon int) []string {
	var qs []string
	for _, p := range []string{"P1", "P2"} {
		for _, c := range []string{"C1", "C2", "C3", "C4"} {
			qs = append(qs, fmt.Sprintf(
				"SELECT time, SUM(m) FROM facts WHERE product = '%s' AND city = '%s' AS OF now() + '%d steps'",
				p, c, horizon))
		}
	}
	return qs
}

// TestSelfTuningResultInvariance is the guardrail for every actuator: a
// fully self-tuned engine (telemetry, pre-warming, trough re-estimation,
// adaptive cache sizing) must return bit-identical results to an untuned
// twin fed the same inserts and queries. Each time point inserts one
// batch, ticks the tuned side's control loop (eager trough work and
// pre-warming run here, before any real query), then queries every
// template on both engines and compares exactly. Every template is
// queried in every inter-advance window, so lazy re-estimation on the
// untuned side fits at the same series state the tuned side's eager
// re-fits used. Run with -race this also stress-tests the telemetry hook
// against concurrent actuation.
func TestSelfTuningResultInvariance(t *testing.T) {
	data := buildSnapshot(t)
	opts := f2db.Options{Strategy: f2db.TimeBased{Every: 2}}
	tuned := loadTwin(t, data, opts)
	plain := loadTwin(t, data, opts)

	sib := sibyl.New(sibyl.Options{Season: 4})
	sib.Attach(
		&sibyl.Prewarm{Run: func(sql string) error {
			_, err := tuned.Query(sql)
			return err
		}},
		&sibyl.TroughWork{Run: func() { tuned.ReestimateInvalid() }},
		&sibyl.CacheSizer{
			Apply: func(n int) { tuned.SetPlanCacheCapacity(n) },
			Min:   4, Max: 512, Current: 256,
		},
		&sibyl.CacheSizer{
			Apply: func(n int) { tuned.SetForecastCacheCapacity(n) },
			Min:   8, Max: 4096, PerTemplate: 4, Current: 4096,
		},
	)
	tuned.SetTelemetry(sib)

	templates := append(baseQueries(1),
		"SELECT time, SUM(m) FROM facts WHERE region = 'R1' AS OF now() + '2 steps'",
		"SELECT time, SUM(m) FROM facts WHERE region = 'R2' AS OF now() + '2 steps'",
		"SELECT time, SUM(m) FROM facts WHERE product = 'P1'",
		"SELECT time, SUM(m), AVG(m) FROM facts WHERE product = 'P2' GROUP BY time, city",
	)
	for tp := 0; tp < 12; tp++ {
		batch := fullBatch(tuned, tp)
		if err := tuned.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := plain.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		// Tick before the real queries: trough re-estimation and
		// pre-warming act on the freshly advanced state, exactly where a
		// wrong actuator would diverge the engines.
		sib.Tick()
		// Oscillating volume so the aggregate model predicts real troughs.
		reps := 1
		if tp%4 < 2 {
			reps = 4
		}
		for _, q := range templates {
			for r := 0; r < reps; r++ {
				got, err := tuned.Query(q)
				if err != nil {
					t.Fatalf("tp %d %q: %v", tp, q, err)
				}
				want, err := plain.Query(q)
				if err != nil {
					t.Fatalf("tp %d %q (plain): %v", tp, q, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("tp %d: self-tuned result diverged for %q:\n tuned: %+v\n plain: %+v",
						tp, q, got, want)
				}
			}
		}
	}
	m := sib.Metrics()
	if m.Buckets.Load() != 12 || m.Observed.Load() == 0 {
		t.Fatalf("control loop did not run: buckets=%d observed=%d", m.Buckets.Load(), m.Observed.Load())
	}
	if m.TroughRuns.Load() == 0 {
		t.Fatal("no trough maintenance ran; the invariance test exercised nothing")
	}
	if m.Resizes.Load() == 0 {
		t.Fatal("no cache resize applied; the invariance test exercised nothing")
	}
}

// TestSpikeOnsetHitRate measures what pre-warming buys at spike onset. A
// 4-phase workload cycles disjoint template sets; every time point inserts
// a full batch (bumping the epoch and invalidating every memoized
// forecast), so the first query of each newly-active template misses the
// forecast memo — unless the self-tuner predicted the phase change and
// re-warmed those templates right after the insert. The tuned engine must
// convert at least 1.5x as many spike-onset first queries into memo hits
// as the untuned control.
func TestSpikeOnsetHitRate(t *testing.T) {
	data := buildSnapshot(t)
	opts := f2db.Options{} // Strategy Never: pure caching, no refit noise
	tuned := loadTwin(t, data, opts)
	control := loadTwin(t, data, opts)

	const phases = 4
	all := append(baseQueries(1), baseQueries(2)...) // 16 templates
	phase := func(p int) []string { return all[p*4 : (p+1)*4] }

	sib := sibyl.New(sibyl.Options{Season: phases})
	sib.Attach(&sibyl.Prewarm{Run: func(sql string) error {
		_, err := tuned.Query(sql)
		return err
	}})
	tuned.SetTelemetry(sib)

	onsetHits := func(db *f2db.DB, q string) bool {
		before := db.Metrics().ForecastCacheHits
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
		return db.Metrics().ForecastCacheHits > before
	}

	const warmup, measure = 3 * phases, 4 * phases
	tunedHits, controlHits, onsets := 0, 0, 0
	for tp := 0; tp < warmup+measure; tp++ {
		batch := fullBatch(tuned, tp)
		if err := tuned.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := control.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		// The control loop runs after the insert: it closed the bucket
		// holding phase(tp-1)'s counts, so a seasonal model predicts
		// phase(tp)'s templates to spike next and pre-warms them against
		// the fresh epoch.
		sib.Tick()
		for _, q := range phase(tp % phases) {
			if tp >= warmup {
				onsets++
				if onsetHits(tuned, q) {
					tunedHits++
				}
				if onsetHits(control, q) {
					controlHits++
				}
			} else {
				if _, err := tuned.Query(q); err != nil {
					t.Fatal(err)
				}
				if _, err := control.Query(q); err != nil {
					t.Fatal(err)
				}
			}
			// Repeat queries keep the template's arrival rate above the
			// spike thresholds (and hit the memo on both sides).
			for r := 0; r < 2; r++ {
				if _, err := tuned.Query(q); err != nil {
					t.Fatal(err)
				}
				if _, err := control.Query(q); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	t.Logf("spike-onset memo hits: tuned %d/%d, control %d/%d (prewarms=%d spikes=%d)",
		tunedHits, onsets, controlHits, onsets,
		sib.Metrics().Prewarms.Load(), sib.Metrics().Spikes.Load())
	if sib.Metrics().Prewarms.Load() == 0 {
		t.Fatal("no pre-warm ran; the workload never tripped the spike classifier")
	}
	if float64(tunedHits) < 1.5*math.Max(float64(controlHits), 1) {
		t.Fatalf("spike-onset hit rate %d/%d not >= 1.5x control %d/%d",
			tunedHits, onsets, controlHits, onsets)
	}
}
