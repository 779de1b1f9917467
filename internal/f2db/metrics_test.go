package f2db

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"cubefc/internal/metrics"
)

func TestMetricsAccounting(t *testing.T) {
	db, g, _ := testEngine(t, nil)
	if _, err := db.ForecastNode(g.TopID, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ForecastNode(g.BaseIDs[0], 2); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.Queries != 2 {
		t.Fatalf("queries = %d, want 2", m.Queries)
	}
	if m.QueryLatency.Count != 2 {
		t.Fatalf("latency count = %d, want 2", m.QueryLatency.Count)
	}
	if m.QueryTime <= 0 {
		t.Fatal("query time not accumulated")
	}
	var hits int64
	for _, c := range m.SchemeHits {
		hits += c
	}
	if hits != 2 {
		t.Fatalf("scheme hits = %d, want 2 (%v)", hits, m.SchemeHits)
	}
	// Metrics and Stats agree on the shared counters.
	s := db.Stats()
	if int64(s.Queries) != m.Queries || s.QueryTime != m.QueryTime {
		t.Fatalf("Stats/Metrics diverge: %+v vs %+v", s, m)
	}

	rendered := db.Metrics().String()
	for _, want := range []string{"f2db_queries_total=2", "f2db_scheme_hits_total{kind=", "f2db_query_latency_seconds: count=2 mean="} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("rendered metrics missing %q:\n%s", want, rendered)
		}
	}
}

func TestMetricsHandlerPrometheus(t *testing.T) {
	db, g, _ := testEngine(t, nil)
	q := "SELECT time, SUM(m) FROM facts GROUP BY time AS OF now() + '2 steps'"
	for i := 0; i < 3; i++ {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.InsertBatch(fullBatch(db, 0)); err != nil {
		t.Fatal(err)
	}
	for _, id := range g.BaseIDs[:2] {
		if err := db.InsertBase(id, 9); err != nil {
			t.Fatal(err)
		}
	}

	rec := httptest.NewRecorder()
	metrics.Handler(db.Registry()).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	body := rec.Body.String()

	for metric, want := range map[string]string{
		"f2db_queries_total":               "3",
		"f2db_inserts_total":               fmt.Sprintf("%d", len(g.BaseIDs)+2),
		"f2db_insert_batches_total":        "1",
		"f2db_maintenance_batches_total":   "1",
		"f2db_plan_cache_hits_total":       "2",
		"f2db_plan_cache_misses_total":     "1",
		"f2db_plan_cache_entries":          "1",
		"f2db_forecast_cache_hits_total":   "2",
		"f2db_pending_inserts":             "2",
		"f2db_query_latency_seconds_count": "3",
	} {
		re := regexp.MustCompile(`(?m)^` + metric + ` (\S+)$`)
		match := re.FindStringSubmatch(body)
		if match == nil {
			t.Fatalf("metric %s missing from exposition:\n%s", metric, body)
		}
		if match[1] != want {
			t.Errorf("%s = %s, want %s", metric, match[1], want)
		}
	}

	// Every exposed family carries HELP and TYPE lines.
	for _, family := range []string{
		"f2db_queries_total", "f2db_epoch_bumps_total", "f2db_query_latency_seconds", "f2db_pending_lock_contention_total",
	} {
		if !strings.Contains(body, "# HELP "+family+" ") {
			t.Errorf("missing HELP for %s", family)
		}
		if !strings.Contains(body, "# TYPE "+family+" ") {
			t.Errorf("missing TYPE for %s", family)
		}
	}

	// The labeled scheme-hit family and the histogram's +Inf bucket are
	// well-formed.
	if !regexp.MustCompile(`(?m)^f2db_scheme_hits_total\{kind="[a-z]+"\} \d+$`).MatchString(body) {
		t.Error("scheme-hit family missing or malformed")
	}
	if !regexp.MustCompile(`(?m)^f2db_query_latency_seconds_bucket\{le="\+Inf"\} 3$`).MatchString(body) {
		t.Error("histogram +Inf bucket missing or wrong")
	}
	// Cumulative buckets never decrease.
	bucketRe := regexp.MustCompile(`(?m)^f2db_query_latency_seconds_bucket\{le="[^+]+"\} (\d+)$`)
	prev := int64(-1)
	for _, m := range bucketRe.FindAllStringSubmatch(body, -1) {
		var v int64
		fmt.Sscanf(m[1], "%d", &v)
		if v < prev {
			t.Fatalf("histogram buckets not cumulative:\n%s", body)
		}
		prev = v
	}
}

// TestRegistryComplete fills every exported numeric field of a Metrics
// snapshot with a value of its own and requires each value on both
// surfaces — the test that fails when a field is added to the snapshot
// without a row in describe (as StripeBases once was).
func TestRegistryComplete(t *testing.T) {
	var m Metrics
	next := int64(1000)
	want := map[string]string{}
	v := reflect.ValueOf(&m).Elem()
	for i := 0; i < v.NumField(); i++ {
		name, f := v.Type().Field(i).Name, v.Field(i)
		if name == "ReestimateGenRetries" {
			continue // always 0 and on neither surface; kept for the benchmark harness
		}
		next++
		switch f.Interface().(type) {
		case time.Duration:
			f.SetInt(next * int64(time.Second))
		case int, int64:
			f.SetInt(next)
		case []int, []int64:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
			f.Index(0).SetInt(next)
		case map[string]int64:
			f.Set(reflect.ValueOf(map[string]int64{"direct": next}))
		case metrics.HistogramSnapshot:
			f.Set(reflect.ValueOf(metrics.HistogramSnapshot{Count: next, Sum: 1}))
		default:
			t.Fatalf("field %s has type %s: teach this test how to fill it", name, f.Type())
		}
		want[name] = fmt.Sprint(next)
	}
	var r metrics.Registry
	m.describe(&r)
	var page strings.Builder
	if err := r.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	stats := m.String()
	for name, val := range want {
		if !regexp.MustCompile(`(?m) ` + val + `$`).MatchString(page.String()) {
			t.Errorf("Metrics.%s (= %s) is not on /metrics", name, val)
		}
		if !regexp.MustCompile(`=` + val + `\b`).MatchString(stats) {
			t.Errorf("Metrics.%s (= %s) is not on \\stats:\n%s", name, val, stats)
		}
	}
}

// TestStatsOmitsDurabilityOnlyWhenIdle: the durability line is left out of
// \stats on an engine that never logged, while /metrics always carries the
// families.
func TestStatsOmitsDurabilityOnlyWhenIdle(t *testing.T) {
	if s := (Metrics{}).String(); strings.Contains(s, "f2db_wal_appends_total") {
		t.Fatalf("idle engine prints a durability line:\n%s", s)
	}
	if s := (Metrics{SnapshotWrites: 1}).String(); !strings.Contains(s, "f2db_wal_appends_total=0") || !strings.Contains(s, "f2db_snapshot_writes_total=1") {
		t.Fatalf("durable engine misses its durability line:\n%s", s)
	}
	var r metrics.Registry
	Metrics{}.describe(&r)
	var page strings.Builder
	if err := r.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(page.String(), "f2db_wal_appends_total 0\n") {
		t.Fatalf("/metrics must carry the durability families at 0:\n%s", page.String())
	}
}

func TestViewsReturnCopies(t *testing.T) {
	db, g, _ := testEngine(t, nil)
	gv := db.Graph()

	ids := gv.BaseIDs()
	ids[0] = -99
	if gv.BaseIDs()[0] == -99 {
		t.Fatal("BaseIDs aliases internal state")
	}
	vals := gv.NodeValues(g.TopID)
	if len(vals) != gv.Length() {
		t.Fatalf("values len %d, want %d", len(vals), gv.Length())
	}
	vals[0] = -1e9
	if gv.NodeValues(g.TopID)[0] == -1e9 {
		t.Fatal("NodeValues aliases internal state")
	}
	if gv.NodeValues(-1) != nil || gv.NodeKey(-1) != "" || gv.IsBase(-1) {
		t.Fatal("out-of-range node not handled")
	}

	cv := db.Configuration()
	mids := cv.ModelIDs()
	if len(mids) != cv.NumModels() {
		t.Fatalf("%d model IDs, %d models", len(mids), cv.NumModels())
	}
	for _, id := range mids {
		if cv.ModelFamily(id) == "" {
			t.Fatalf("model node %d has no family", id)
		}
		sc, ok := cv.Scheme(id)
		if !ok {
			t.Fatalf("model node %d has no scheme", id)
		}
		if len(sc.Sources) > 0 {
			sc.Sources[0] = -99
			sc2, _ := cv.Scheme(id)
			if sc2.Sources[0] == -99 {
				t.Fatal("Scheme aliases internal source slice")
			}
		}
	}
	if _, ok := cv.Scheme(-1); ok {
		t.Fatal("scheme for unknown node")
	}
	if db.Explain(g.TopID) == "" {
		t.Fatal("Explain returned nothing")
	}
}
