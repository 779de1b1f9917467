package sibyl

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// All tests drive the clock through Tick() directly: one call closes one
// bucket, so every schedule below is deterministic — no sleeps, no wall
// time.

func observeN(e *Engine, key string, n int) {
	for i := 0; i < n; i++ {
		e.ObserveTemplate(key)
	}
}

func TestBucketRollover(t *testing.T) {
	e := New(Options{})
	observeN(e, "SELECT a", 5)
	observeN(e, "SELECT b", 2)
	p := e.Tick()
	if p.Bucket != 1 {
		t.Fatalf("bucket = %d, want 1", p.Bucket)
	}
	if got := e.met.Observed.Load(); got != 7 {
		t.Fatalf("observed = %d, want 7", got)
	}
	if len(p.Templates) != 2 {
		t.Fatalf("templates = %d, want 2", len(p.Templates))
	}
	// First closed bucket seeds the EWMA with the raw count; sort order is
	// predicted (== rate here) descending.
	if p.Templates[0].Key != "SELECT a" || p.Templates[0].Rate != 5 {
		t.Fatalf("hottest = %+v, want SELECT a at rate 5", p.Templates[0])
	}
	if p.Templates[1].Rate != 2 {
		t.Fatalf("second rate = %v, want 2", p.Templates[1].Rate)
	}
	if p.AggRate != 7 {
		t.Fatalf("agg rate = %v, want 7", p.AggRate)
	}
	if p.WorkingSet != 2 {
		t.Fatalf("working set = %d, want 2", p.WorkingSet)
	}

	// An empty bucket decays the rates but keeps both templates (above
	// the eviction floor, too young anyway).
	p = e.Tick()
	if p.Templates[0].Rate >= 5 || p.Templates[0].Rate <= 0 {
		t.Fatalf("rate did not decay into (0,5): %v", p.Templates[0].Rate)
	}
}

func TestTemplateTableBound(t *testing.T) {
	e := New(Options{})
	e.maxTemplates, e.halfLife, e.minHistory, e.evictBelow = 2, 1, 2, 0.25
	// Make A and B genuinely hot (rate >= 1 after a tick)...
	observeN(e, "A", 8)
	observeN(e, "B", 8)
	e.Tick()
	// ...so a newcomer cannot displace either: it is dropped, its arrival
	// only counted in the aggregate.
	e.ObserveTemplate("C")
	if got := e.met.Dropped.Load(); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
	if _, ok := e.templates.Load("C"); ok {
		t.Fatal("dropped template must not enter the table")
	}

	// Let B go cold: a half-life of 1 halves its rate every empty bucket,
	// so it falls below evictBelow and is decay-evicted.
	for i := 0; i < 8; i++ {
		observeN(e, "A", 8)
		e.Tick()
	}
	if _, ok := e.templates.Load("B"); ok {
		t.Fatal("cold template survived decay eviction")
	}
	if e.met.Evicted.Load() == 0 {
		t.Fatal("eviction not counted")
	}
	// With a slot free, a newcomer registers normally.
	e.ObserveTemplate("D")
	if _, ok := e.templates.Load("D"); !ok {
		t.Fatal("newcomer not registered after eviction freed a slot")
	}
	if got := e.met.Templates.Load(); got != 2 {
		t.Fatalf("template gauge = %d, want 2", got)
	}
}

func TestColdVictimReplacement(t *testing.T) {
	e := New(Options{})
	e.maxTemplates = 2
	// Neither A nor B has closed a bucket; both rates are 0 (< 1), so the
	// newcomer replaces the coldest (tie broken by key: A).
	e.ObserveTemplate("A")
	e.ObserveTemplate("B")
	e.ObserveTemplate("C")
	if _, ok := e.templates.Load("A"); ok {
		t.Fatal("cold victim A not replaced")
	}
	if _, ok := e.templates.Load("C"); !ok {
		t.Fatal("newcomer C not registered over cold victim")
	}
	if e.met.Evicted.Load() != 1 || e.met.Dropped.Load() != 0 {
		t.Fatalf("evicted/dropped = %d/%d, want 1/0", e.met.Evicted.Load(), e.met.Dropped.Load())
	}
}

// TestSeasonalSpikeForecast feeds a clean 4-periodic workload (one loaded
// bucket, three idle) and checks that once Holt-Winters has two seasons of
// history it predicts the loaded bucket before it happens — a spike at the
// right phase, never at the wrong one.
func TestSeasonalSpikeForecast(t *testing.T) {
	const season = 4
	e := New(Options{Season: season})
	rightPhase, wrongPhase := 0, 0
	for i := 0; i < 6*season; i++ {
		if i%season == 0 {
			observeN(e, "HOT", 12)
		}
		p := e.Tick()
		if i < 4*season {
			continue // warm-up: history + model settling
		}
		var hot *TemplateForecast
		for j := range p.Templates {
			if p.Templates[j].Key == "HOT" {
				hot = &p.Templates[j]
			}
		}
		if hot == nil {
			t.Fatalf("tick %d: HOT template missing", i)
		}
		nextLoaded := (i+1)%season == 0
		if hot.Spike {
			if nextLoaded {
				rightPhase++
			} else {
				wrongPhase++
			}
		}
	}
	if rightPhase < 2 {
		t.Fatalf("spike predicted before only %d of the loaded buckets", rightPhase)
	}
	if wrongPhase != 0 {
		t.Fatalf("spike predicted at %d idle phases", wrongPhase)
	}
}

// TestTroughSchedulingHysteresis drives the aggregate from busy to idle
// and checks TroughWork runs in the predicted troughs but no more than
// once per troughGap buckets.
func TestTroughSchedulingHysteresis(t *testing.T) {
	e := New(Options{})
	runs := 0
	e.Attach(&TroughWork{Run: func() { runs++ }})
	for i := 0; i < 8; i++ {
		observeN(e, "Q", 20)
		p := e.Tick()
		if p.Trough {
			t.Fatalf("tick %d: trough predicted during steady load", i)
		}
	}
	if runs != 0 {
		t.Fatalf("maintenance ran %d times during steady load", runs)
	}
	const idle = 2*troughGap + 1
	troughs := 0
	for i := 0; i < idle; i++ {
		if e.Tick().Trough {
			troughs++
		}
	}
	if troughs == 0 {
		t.Fatal("no trough predicted after traffic stopped")
	}
	if runs < 2 {
		t.Fatalf("maintenance ran %d times over %d idle buckets, want >= 2", runs, idle)
	}
	if runs > 3 {
		t.Fatalf("maintenance ran %d times over %d idle buckets; a gap of %d allows at most 3", runs, idle, troughGap)
	}
	if e.met.TroughSkips.Load() == 0 {
		t.Fatal("hysteresis skips not counted")
	}
}

func TestPrewarmBudget(t *testing.T) {
	var ran []string
	pw := &Prewarm{Run: func(sql string) error {
		ran = append(ran, sql)
		if sql == "S1" {
			return fmt.Errorf("boom")
		}
		return nil
	}}
	// One spike more than the budget, hottest first, and a hotter template
	// that does not spike.
	p := Prediction{Templates: []TemplateForecast{{Key: "HOT", Predicted: 999, Spike: false}}}
	for i := 0; i <= prewarmBudget; i++ {
		p.Templates = append(p.Templates, TemplateForecast{Key: fmt.Sprintf("S%d", i), Predicted: float64(100 - i), Spike: true})
	}
	var m Metrics
	pw.Act(p, &m)
	if len(ran) != prewarmBudget || ran[0] != "S0" || ran[prewarmBudget-1] != fmt.Sprintf("S%d", prewarmBudget-1) {
		t.Fatalf("ran %v, want the hottest %d spikes S0..S%d", ran, prewarmBudget, prewarmBudget-1)
	}
	if m.Prewarms.Load() != prewarmBudget-1 || m.PrewarmErrors.Load() != 1 {
		t.Fatalf("prewarms/errors = %d/%d, want %d/1", m.Prewarms.Load(), m.PrewarmErrors.Load(), prewarmBudget-1)
	}
}

func TestCacheSizer(t *testing.T) {
	var applied []int
	cs := &CacheSizer{
		Apply:       func(n int) { applied = append(applied, n) },
		Min:         10,
		Max:         100,
		PerTemplate: 2,
		Current:     10,
	}
	var m Metrics
	// WorkingSet 20 → target 20·2·1.25 = 50: outside the ±25% band of 10.
	cs.Act(Prediction{WorkingSet: 20}, &m)
	if len(applied) != 1 || applied[0] != 50 {
		t.Fatalf("applied %v, want [50]", applied)
	}
	// 24 → target 60: within 25% of 50, skipped.
	cs.Act(Prediction{WorkingSet: 24}, &m)
	if len(applied) != 1 {
		t.Fatalf("resize inside the dead band applied: %v", applied)
	}
	if m.ResizeSkips.Load() != 1 {
		t.Fatalf("skips = %d, want 1", m.ResizeSkips.Load())
	}
	// 1000 → clamps to Max.
	cs.Act(Prediction{WorkingSet: 1000}, &m)
	if applied[len(applied)-1] != 100 {
		t.Fatalf("max clamp: applied %v, want last 100", applied)
	}
	// 0 → clamps to Min.
	cs.Act(Prediction{WorkingSet: 0}, &m)
	if applied[len(applied)-1] != 10 {
		t.Fatalf("min clamp: applied %v, want last 10", applied)
	}
	if m.Resizes.Load() != 3 {
		t.Fatalf("resizes = %d, want 3", m.Resizes.Load())
	}
}

// TestStartStopRaceStress hammers the lock-free ingest path from many
// goroutines while the production ticker runs Tick concurrently; run with
// -race this proves the ingest/control-loop split is sound.
func TestStartStopRaceStress(t *testing.T) {
	e := New(Options{Bucket: time.Millisecond})
	e.Attach(&TroughWork{Run: func() {}})
	e.Start()
	e.Start() // idempotent
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				e.ObserveTemplate(fmt.Sprintf("Q%d", i%32))
			}
		}(w)
	}
	wg.Wait()
	e.Stop()
	e.Stop() // idempotent
	if got := e.met.Observed.Load(); got != 8*2000 {
		t.Fatalf("observed = %d, want %d", got, 8*2000)
	}
}

func TestStatsLineAndPrometheus(t *testing.T) {
	e := New(Options{})
	observeN(e, "A", 3)
	e.Tick()
	var stats, page bytes.Buffer
	if err := e.Metrics().Registry().WriteStats(&stats); err != nil {
		t.Fatal(err)
	}
	if line := stats.String(); !strings.HasPrefix(line, "sibyl_observed_total=3 sibyl_templates=1 ") ||
		strings.Count(line, "\n") != 1 || !strings.HasSuffix(line, "\n") {
		t.Fatalf("stats line malformed: %q", line)
	}
	if err := e.Metrics().Registry().WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"sibyl_observed_total 3", "sibyl_templates 1", "sibyl_buckets_total 1"} {
		if !strings.Contains(page.String(), fam) {
			t.Fatalf("prometheus output missing %q:\n%s", fam, page.String())
		}
	}
}

// TestRegistryComplete gives every exported atomic.Int64 field of Metrics
// a value of its own and requires each on /metrics and on \stats: a field
// added without a registration line fails here (as FitErrors, PrewarmErrors,
// TroughSkips and ResizeSkips once were missing from \stats).
func TestRegistryComplete(t *testing.T) {
	var m Metrics
	want := map[string]string{}
	v := reflect.ValueOf(&m).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, ok := v.Field(i).Addr().Interface().(*atomic.Int64)
		if !ok {
			t.Fatalf("field %s has type %s: teach this test how to fill it", v.Type().Field(i).Name, v.Field(i).Type())
		}
		f.Store(int64(1001 + i))
		want[v.Type().Field(i).Name] = fmt.Sprint(1001 + i)
	}
	var page, stats bytes.Buffer
	if err := m.Registry().WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	if err := m.Registry().WriteStats(&stats); err != nil {
		t.Fatal(err)
	}
	for name, val := range want {
		if !strings.Contains(page.String(), " "+val+"\n") {
			t.Errorf("Metrics.%s (= %s) is not on /metrics", name, val)
		}
		if !strings.Contains(stats.String(), "="+val) {
			t.Errorf("Metrics.%s (= %s) is not on \\stats: %s", name, val, stats.String())
		}
	}
}

// BenchmarkObserveTemplate measures the telemetry hook on the query hot
// path for an already-registered template — the overhead every query pays
// when -selftune is on (budget: ~100ns single-threaded).
func BenchmarkObserveTemplate(b *testing.B) {
	e := New(Options{})
	e.ObserveTemplate("SELECT time, SUM(m) FROM facts WHERE state = 'NSW'")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ObserveTemplate("SELECT time, SUM(m) FROM facts WHERE state = 'NSW'")
	}
}

func BenchmarkObserveTemplateParallel(b *testing.B) {
	e := New(Options{})
	e.ObserveTemplate("SELECT time, SUM(m) FROM facts WHERE state = 'NSW'")
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			e.ObserveTemplate("SELECT time, SUM(m) FROM facts WHERE state = 'NSW'")
		}
	})
}
