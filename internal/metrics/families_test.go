package metrics_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cubefc/internal/coord"
	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/f2db"
	"cubefc/internal/metrics"
	"cubefc/internal/segment"
	"cubefc/internal/server"
	"cubefc/internal/timeseries"
)

// lint holds one /metrics page to the exposition rules the repo relies on:
// every sample follows the HELP and TYPE of its own family, no family is
// declared twice (across all registries mounted on the page), and every
// histogram series has non-decreasing cumulative buckets ending in a +Inf
// bucket equal to its _count.
func lint(page string) error {
	types := map[string]string{}
	family, helped := "", ""
	lastBucket := map[string]float64{} // histogram series → last cumulative bucket
	inf := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		switch f := strings.Fields(line); {
		case strings.HasPrefix(line, "# HELP "):
			helped = f[2]
		case strings.HasPrefix(line, "# TYPE "):
			if _, dup := types[f[2]]; dup {
				return fmt.Errorf("family %s declared twice", f[2])
			}
			if helped != f[2] {
				return fmt.Errorf("TYPE %s without its HELP", f[2])
			}
			family = f[2]
			types[family] = f[3]
		default:
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				return fmt.Errorf("malformed sample %q", line)
			}
			id := line[:sp]
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if err != nil {
				return fmt.Errorf("sample %q: %v", line, err)
			}
			name, labels, _ := strings.Cut(id, "{")
			labels = strings.TrimSuffix(labels, "}")
			if types[family] != "histogram" {
				if name != family {
					return fmt.Errorf("sample %s under family %s", name, family)
				}
				continue
			}
			switch series := strings.TrimPrefix(name, family); series {
			case "_bucket":
				rest, le, _ := strings.Cut(labels, `le="`)
				key := family + "{" + strings.TrimSuffix(rest, ",")
				if v < lastBucket[key] {
					return fmt.Errorf("%s: buckets not cumulative at %s", key, line)
				}
				lastBucket[key] = v
				if le == `+Inf"` {
					inf[key] = v
				}
			case "_count":
				key := family + "{" + labels
				if got, ok := inf[key]; !ok || got != v {
					return fmt.Errorf("%s: +Inf bucket %v != _count %v", key, got, v)
				}
			case "_sum":
			default:
				return fmt.Errorf("sample %s under histogram %s", name, family)
			}
		}
	}
	return nil
}

func TestLintCatchesMalformedPages(t *testing.T) {
	for name, page := range map[string]string{
		"sample before its family": "a_total 1\n",
		"duplicate family":         "# HELP a a\n# TYPE a counter\na 1\n# HELP a a\n# TYPE a counter\na 1\n",
		"non-cumulative":           "# HELP h h\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"+Inf != count":            "# HELP h h\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 2\n",
		"sample of another family": "# HELP a a\n# TYPE a counter\na 1\nb 1\n",
	} {
		if lint(page) == nil {
			t.Errorf("%s: lint accepted\n%s", name, page)
		}
	}
}

// TestRenderUnderUpdates renders both formats while eight goroutines
// update every registered value (run under -race), and holds each
// exposition to the lint.
func TestRenderUnderUpdates(t *testing.T) {
	var c atomic.Int64
	var h metrics.Histogram
	r := &metrics.Registry{}
	r.Int("demo_requests_total", "Requests.", &c)
	r.Histogram("demo_latency_seconds", "Latency.", 1e9, &h)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w uint) {
			defer wg.Done()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
					c.Add(1)
					h.Observe(i << w)
				}
			}
		}(uint(w))
	}
	for i := 0; i < 50; i++ {
		var b bytes.Buffer
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if err := lint(b.String()); err != nil {
			t.Fatalf("%v\n%s", err, b.String())
		}
		if err := r.WriteStats(&b); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// parentFamilies is the sorted `# TYPE` set of /metrics at the parent of
// the registry change (commit 32fe73c): a durable engine with 2 stripes
// that answered one query, a coordinator over 2 shards, a server and a
// sibyl engine, all on one page. It is recorded from that commit, not from
// this one.
const parentFamilies = `# TYPE coord_cache_coalesced_total counter
# TYPE coord_cache_evictions_total counter
# TYPE coord_cache_hits_total counter
# TYPE coord_cache_invalidations_total counter
# TYPE coord_cache_misses_total counter
# TYPE coord_cache_resizes_total counter
# TYPE coord_epoch_global_bumps_total counter
# TYPE coord_epoch_part_bumps_total counter
# TYPE coord_execs_total counter
# TYPE coord_failovers_total counter
# TYPE coord_fanout_subqueries_total counter
# TYPE coord_fanout_width counter
# TYPE coord_fanouts_total counter
# TYPE coord_log_trimmed_total counter
# TYPE coord_queries_total counter
# TYPE coord_route_memo_hits_total counter
# TYPE coord_shard0_latency_seconds histogram
# TYPE coord_shard1_latency_seconds histogram
# TYPE coord_shard_errors_total counter
# TYPE coord_shard_replay_rejects_total counter
# TYPE coord_shard_replays_total counter
# TYPE coord_shard_requests_total counter
# TYPE coord_shards_dead gauge
# TYPE coord_shards_down gauge
# TYPE f2db_epoch_bumps_total counter
# TYPE f2db_forecast_cache_bypasses_total counter
# TYPE f2db_forecast_cache_entries gauge
# TYPE f2db_forecast_cache_evictions_total counter
# TYPE f2db_forecast_cache_hits_total counter
# TYPE f2db_forecast_cache_misses_total counter
# TYPE f2db_forecast_shard_entries gauge
# TYPE f2db_insert_batches_total counter
# TYPE f2db_inserts_total counter
# TYPE f2db_invalid_models gauge
# TYPE f2db_maintain_seconds_total counter
# TYPE f2db_maintenance_batches_total counter
# TYPE f2db_pending_inserts gauge
# TYPE f2db_plan_cache_entries gauge
# TYPE f2db_plan_cache_evictions_total counter
# TYPE f2db_plan_cache_hits_total counter
# TYPE f2db_plan_cache_misses_total counter
# TYPE f2db_queries_total counter
# TYPE f2db_query_latency_seconds histogram
# TYPE f2db_query_seconds_total counter
# TYPE f2db_reestimations_total counter
# TYPE f2db_scheme_hits_total counter
# TYPE f2db_segment_bytes_total counter
# TYPE f2db_segment_compactions_total counter
# TYPE f2db_snapshot_writes_total counter
# TYPE f2db_stripe_lock_contention_total counter
# TYPE f2db_stripe_pending gauge
# TYPE f2db_wal_appends_total counter
# TYPE f2db_wal_bytes_total counter
# TYPE f2db_wal_files gauge
# TYPE f2db_wal_replayed_batches_total counter
# TYPE f2db_wal_syncs_total counter
# TYPE f2db_write_stripes gauge
# TYPE f2dbd_connections_accepted_total counter
# TYPE f2dbd_connections_active gauge
# TYPE f2dbd_request_errors_total counter
# TYPE f2dbd_request_latency_seconds histogram
# TYPE f2dbd_request_timeouts_total counter
# TYPE f2dbd_requests_total counter
# TYPE sibyl_buckets_total counter
# TYPE sibyl_fit_errors_total counter
# TYPE sibyl_observed_total counter
# TYPE sibyl_prewarm_errors_total counter
# TYPE sibyl_prewarms_total counter
# TYPE sibyl_refits_total counter
# TYPE sibyl_resize_skips_total counter
# TYPE sibyl_resizes_total counter
# TYPE sibyl_spikes_total counter
# TYPE sibyl_templates gauge
# TYPE sibyl_templates_dropped_total counter
# TYPE sibyl_templates_evicted_total counter
# TYPE sibyl_trough_runs_total counter
# TYPE sibyl_trough_skips_total counter
# TYPE sibyl_troughs_total counter
`

// familyChanges is everything done to that set since: the two malformed
// families fixed and the one gauge that was filled but never exported (the
// registry change), then the engine's two resident-set gauges. The write
// stripes and memo shards went later (pendingLockFamilies).
var familyChanges = strings.NewReplacer(
	"# TYPE coord_fanout_width counter\n", "# TYPE coord_fanout_width histogram\n",
	"# TYPE coord_shard0_latency_seconds histogram\n", "# TYPE coord_shard_latency_seconds histogram\n",
	"# TYPE coord_shard1_latency_seconds histogram\n", "",
	"# TYPE f2db_stripe_lock_contention_total counter\n", "# TYPE f2db_stripe_bases gauge\n# TYPE f2db_stripe_lock_contention_total counter\n",
	"# TYPE f2db_pending_inserts gauge\n", "# TYPE f2db_graph_nodes gauge\n# TYPE f2db_pending_inserts gauge\n# TYPE f2db_resident_nodes gauge\n",
)

// pendingLockFamilies folds the per-stripe and per-shard families into the
// one pending-lock counter, applied after familyChanges.
var pendingLockFamilies = strings.NewReplacer(
	"# TYPE f2db_forecast_shard_entries gauge\n", "",
	"# TYPE f2db_stripe_bases gauge\n", "",
	"# TYPE f2db_stripe_lock_contention_total counter\n", "# TYPE f2db_pending_lock_contention_total counter\n",
	"# TYPE f2db_stripe_pending gauge\n", "",
	"# TYPE f2db_write_stripes gauge\n", "",
)

// oneEpochFamilies drops the per-partition epoch counter: the coordinator's
// read table keeps one write epoch.
var oneEpochFamilies = strings.NewReplacer(
	"# TYPE coord_epoch_part_bumps_total counter\n", "",
)

// oneWriterFamilies drops the pending-lock counter: insert statements
// serialize on the maintenance lock alone.
var oneWriterFamilies = strings.NewReplacer(
	"# TYPE f2db_pending_lock_contention_total counter\n", "",
)

// oneFlightFamilies drops the coalesced-request counter: the read table has
// no singleflight.
var oneFlightFamilies = strings.NewReplacer(
	"# TYPE coord_cache_coalesced_total counter\n", "",
)

// noSibylFamilies drops the self-forecasting engine's families and the read
// table's resize counter: no process tunes itself.
var noSibylFamilies = strings.NewReplacer(
	"# TYPE coord_cache_resizes_total counter\n", "",
	"# TYPE sibyl_buckets_total counter\n", "",
	"# TYPE sibyl_fit_errors_total counter\n", "",
	"# TYPE sibyl_observed_total counter\n", "",
	"# TYPE sibyl_prewarm_errors_total counter\n", "",
	"# TYPE sibyl_prewarms_total counter\n", "",
	"# TYPE sibyl_refits_total counter\n", "",
	"# TYPE sibyl_resize_skips_total counter\n", "",
	"# TYPE sibyl_resizes_total counter\n", "",
	"# TYPE sibyl_spikes_total counter\n", "",
	"# TYPE sibyl_templates gauge\n", "",
	"# TYPE sibyl_templates_dropped_total counter\n", "",
	"# TYPE sibyl_templates_evicted_total counter\n", "",
	"# TYPE sibyl_trough_runs_total counter\n", "",
	"# TYPE sibyl_trough_skips_total counter\n", "",
	"# TYPE sibyl_troughs_total counter\n", "",
)

// oneTableFamilies folds the engine's plan-cache and forecast-memo families
// into the one read table's. Applied after noSibylFamilies.
var oneTableFamilies = strings.NewReplacer(
	"# TYPE f2db_forecast_cache_bypasses_total counter\n", "# TYPE f2db_lazy_refit_bypasses_total counter\n",
	"# TYPE f2db_forecast_cache_entries gauge\n", "# TYPE f2db_read_table_entries gauge\n",
	"# TYPE f2db_forecast_cache_evictions_total counter\n", "# TYPE f2db_read_table_evictions_total counter\n",
	"# TYPE f2db_forecast_cache_hits_total counter\n", "# TYPE f2db_read_table_hits_total counter\n",
	"# TYPE f2db_forecast_cache_misses_total counter\n", "# TYPE f2db_read_table_misses_total counter\n",
	"# TYPE f2db_plan_cache_entries gauge\n", "# TYPE f2db_read_table_invalidations_total counter\n",
	"# TYPE f2db_plan_cache_evictions_total counter\n", "",
	"# TYPE f2db_plan_cache_hits_total counter\n", "# TYPE f2db_read_table_plan_hits_total counter\n",
	"# TYPE f2db_plan_cache_misses_total counter\n", "# TYPE f2db_read_table_plans_total counter\n",
)

// byPositionFamilies drops the replay-reject counter: a shard acks a time
// point it already holds, so no replayed statement is rejected.
var byPositionFamilies = strings.NewReplacer(
	"# TYPE coord_shard_replay_rejects_total counter\n", "",
)

// typeLines returns the sorted `# TYPE` lines of a page.
func typeLines(page string) string {
	var types []string
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types = append(types, line)
		}
	}
	sort.Strings(types)
	return strings.Join(types, "\n") + "\n"
}

// TestFamilySet mounts all three registries on one handler, the way the
// daemons do, and holds the page to the lint and to the parent's family
// set plus the listed changes — on a fresh stack and again after traffic,
// since the set must not depend on what has happened so far.
func TestFamilySet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	loc, err := cube.NewHierarchy("location", []string{"city", "region"},
		[]map[string]string{{"C1": "R1", "C2": "R1", "C3": "R2", "C4": "R2"}})
	if err != nil {
		t.Fatal(err)
	}
	var base []cube.BaseSeries
	for _, p := range []string{"P1", "P2"} {
		for _, c := range []string{"C1", "C2", "C3", "C4"} {
			vals := make([]float64, 36)
			level := 30 + 20*rng.Float64()
			for i := range vals {
				vals[i] = level * (1 + 0.25*math.Sin(2*math.Pi*float64(i%4)/4)) * (1 + 0.05*rng.NormFloat64())
			}
			base = append(base, cube.BaseSeries{Members: []string{p, c}, Series: timeseries.New(vals, 4)})
		}
	}
	g, err := cube.NewGraph([]cube.Dimension{cube.NewDimension("product", "product"), loc}, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := core.Run(g, core.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	opts := f2db.Options{Strategy: f2db.Never{}}
	dur, err := f2db.OpenDurable(f2db.DurableOptions{Dir: "d", FS: segment.NewMemFS()}, opts,
		func() (*f2db.DB, error) { return f2db.Open(g, cfg, opts) })
	if err != nil {
		t.Fatal(err)
	}
	db := dur.DB()
	srv := server.New(db, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	addr := ln.Addr().String()
	co, err := coord.New(f2db.NewPlanner(g, 0), []string{addr, addr}, coord.Options{CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	handler := metrics.Handler(db.Registry(), co.Metrics().Registry(), srv.Metrics().Registry())

	check := func(when string) string {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		page := rec.Body.String()
		if err := lint(page); err != nil {
			t.Fatalf("%s: %v\n%s", when, err, page)
		}
		if got, want := typeLines(page), typeLines(byPositionFamilies.Replace(oneTableFamilies.Replace(noSibylFamilies.Replace(oneFlightFamilies.Replace(oneWriterFamilies.Replace(oneEpochFamilies.Replace(pendingLockFamilies.Replace(familyChanges.Replace(parentFamilies))))))))); got != want {
			t.Fatalf("%s: family set differs from the parent's plus the listed changes\n--- got\n%s--- want\n%s", when, got, want)
		}
		return page
	}
	check("fresh")
	for _, sql := range []string{
		"SELECT time, SUM(m) FROM facts GROUP BY time AS OF now() + '2 steps'",
		"SELECT time, SUM(m) FROM facts GROUP BY time, city AS OF now() + '1 steps'",
	} {
		if _, err := co.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	page := check("after traffic")
	for _, want := range []string{
		`coord_fanout_width_bucket{le="4"} 1`,
		"coord_fanout_width_sum 4",
		"coord_fanout_width_count 1",
		`coord_shard_latency_seconds_count{shard="1",addr="` + addr + `"}`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page misses %q\n%s", want, page)
		}
	}

	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != server.ErrServerClosed {
		t.Fatal(err)
	}
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
}
