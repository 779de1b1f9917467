package coord

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cubefc/internal/cube"
	"cubefc/internal/f2db"
	"cubefc/internal/fclient"
	"cubefc/internal/metrics"
	"cubefc/internal/server"
	"cubefc/internal/timeseries"
	"cubefc/internal/wire"
)

// buildCube builds the twin-test cube (2 products × 4 cities → 2 regions,
// 36 seasonal points), loads its pinned configuration, and returns the graph
// plus the snapshot bytes every replica and twin loads. The model
// configuration is frozen (Strategy Never) so forecasts are a pure function
// of series state and replicas agree bit-for-bit.
func buildCube(t testing.TB) (*cube.Graph, []byte) {
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
	src, err := f2db.Open(g, pinnedConfig(t, g, testEngineConfig), f2db.Options{Strategy: f2db.Never{}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f2db.SaveDatabase(&buf, src); err != nil {
		t.Fatal(err)
	}
	return g, buf.Bytes()
}

// loadEngine loads a fresh replica engine from the snapshot bytes.
func loadEngine(t testing.TB, data []byte) *f2db.DB {
	t.Helper()
	db, err := f2db.LoadDatabase(bytes.NewReader(data), f2db.Options{Strategy: f2db.Never{}})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// testShard is one in-process f2dbd replica. The engine is retained so
// tests can snapshot a shard mid-history (the trim regression restarts a
// shard from such a snapshot).
type testShard struct {
	addr string
	db   *f2db.DB
	srv  *server.Server
	done chan error
}

// startShardOn serves a fresh replica on addr ("127.0.0.1:0" picks a
// port; a concrete addr rebinds a restarted shard to its old one).
func startShardOn(t testing.TB, data []byte, addr string) *testShard {
	t.Helper()
	return serveShard(t, loadEngine(t, data), addr)
}

// serveShard serves db as a replica on addr.
func serveShard(t testing.TB, db *f2db.DB, addr string) *testShard {
	t.Helper()
	srv := server.New(db, server.Options{})
	ln := listenOn(t, addr)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return &testShard{addr: ln.Addr().String(), db: db, srv: srv, done: done}
}

// batchInsertSQL renders one full 8-row insert batch (a complete time
// advance for the twin-test cube) with values derived from v, so
// successive batches carry distinct observations.
func batchInsertSQL(v int) string {
	return fmt.Sprintf("INSERT INTO facts VALUES "+
		"('P1','C1',%d), ('P1','C2',%d), ('P1','C3',%d), ('P1','C4',%d), "+
		"('P2','C1',%d), ('P2','C2',%d), ('P2','C3',%d), ('P2','C4',%d)",
		v+1, v+2, v+3, v+4, v+5, v+6, v+7, v+8)
}

// stop shuts the shard down, abandoning its engine — the restart path
// loads a fresh replica from the snapshot, like a real process restart.
func (ts *testShard) stop(t testing.TB) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ts.srv.Shutdown(ctx); err != nil {
		t.Fatalf("shard shutdown: %v", err)
	}
	<-ts.done
}

func testCoordOpts(t testing.TB) Options {
	return Options{Logf: t.Logf}
}

// waitFor polls cond for up to 10s.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sameResult asserts two query results agree bit-for-bit.
func sameResult(t testing.TB, what string, got, want *f2db.Result) {
	t.Helper()
	if got.Forecast != want.Forecast || len(got.Groups) != len(want.Groups) {
		t.Fatalf("%s: shape differs: forecast %v/%v, %d/%d groups",
			what, got.Forecast, want.Forecast, len(got.Groups), len(want.Groups))
	}
	for i := range want.Groups {
		gg, wg := got.Groups[i], want.Groups[i]
		if gg.Node != wg.Node || gg.Member != wg.Member || len(gg.Rows) != len(wg.Rows) {
			t.Fatalf("%s: group %d differs: node %d/%d member %q/%q rows %d/%d",
				what, i, gg.Node, wg.Node, gg.Member, wg.Member, len(gg.Rows), len(wg.Rows))
		}
		for j := range wg.Rows {
			gr, wr := gg.Rows[j], wg.Rows[j]
			if gr.T != wr.T ||
				math.Float64bits(gr.Value) != math.Float64bits(wr.Value) ||
				math.Float64bits(gr.Lo) != math.Float64bits(wr.Lo) ||
				math.Float64bits(gr.Hi) != math.Float64bits(wr.Hi) {
				t.Fatalf("%s: group %d row %d differs: %+v vs %+v", what, i, j, gr, wr)
			}
		}
	}
}

// TestShardFor pins the shard map: in range, deterministic, and roughly
// uniform for a non-power-of-two shard count.
func TestShardFor(t *testing.T) {
	if ShardFor(123, 1) != 0 {
		t.Fatal("n=1 must map everything to shard 0")
	}
	for _, n := range []int{2, 3, 5, 8} {
		counts := make([]int, n)
		for id := 0; id < 9000; id++ {
			s := ShardFor(id, n)
			if s < 0 || s >= n {
				t.Fatalf("ShardFor(%d, %d) = %d out of range", id, n, s)
			}
			if s != ShardFor(id, n) {
				t.Fatalf("ShardFor(%d, %d) unstable", id, n)
			}
			counts[s]++
		}
		want := 9000 / n
		for s, c := range counts {
			if c < want*7/10 || c > want*13/10 {
				t.Fatalf("n=%d: shard %d holds %d of 9000 (want ≈%d)", n, s, c, want)
			}
		}
	}
}

// TestMetricsCollector checks the Prometheus rendering: the drill-down width
// is a real histogram whose le is an inclusive bound (a width of 4 counts
// under le="4"), and the per-shard latency is one family labelled by shard.
func TestMetricsCollector(t *testing.T) {
	m := newMetrics([]string{"a:1", "b:2"})
	m.Queries.Add(3)
	m.Shards[1].Requests.Add(7)
	for _, width := range []int64{1, 2, 3, 4} {
		m.FanoutWidth.Observe(width)
	}
	m.Shards[1].Latency.Observe(1000)
	var buf bytes.Buffer
	if err := m.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"coord_queries_total 3",
		`coord_shard_requests_total{shard="1",addr="b:2"} 7`,
		"# TYPE coord_fanout_width histogram",
		`coord_fanout_width_bucket{le="1"} 1`,
		`coord_fanout_width_bucket{le="2"} 2`,
		`coord_fanout_width_bucket{le="4"} 4`,
		`coord_fanout_width_bucket{le="+Inf"} 4`,
		"coord_fanout_width_sum 10",
		"coord_fanout_width_count 4",
		`coord_shard_latency_seconds_count{shard="0",addr="a:1"} 0`,
		`coord_shard_latency_seconds_bucket{shard="1",addr="b:2",le="1.024e-06"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("registry output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "coord_shard0_latency_seconds") || strings.Contains(out, `le="8"`) {
		t.Fatalf("registry output still carries a malformed family:\n%s", out)
	}
}

// TestRegistryComplete gives every exported atomic.Int64 and
// metrics.Histogram field of Metrics and ShardMetrics a value of its own
// and requires each on /metrics and on \stats: a field added without a
// registration line fails here.
func TestRegistryComplete(t *testing.T) {
	m := newMetrics([]string{"a:1"})
	next := int64(1000)
	want := map[string]string{}
	fill := func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			name := prefix + v.Type().Field(i).Name
			if name == "Metrics.CacheCoalesced" {
				continue // never filled and on neither surface; kept for the benchmark harness
			}
			next++
			switch f := v.Field(i).Addr().Interface().(type) {
			case *atomic.Int64:
				f.Store(next)
			case *metrics.Histogram:
				for j := int64(0); j < next; j++ {
					f.Observe(1)
				}
			case *[]ShardMetrics, *string:
				continue
			default:
				t.Fatalf("field %s has type %T: teach this test how to fill it", name, f)
			}
			want[name] = fmt.Sprint(next)
		}
	}
	fill("Metrics.", reflect.ValueOf(m).Elem())
	fill("ShardMetrics.", reflect.ValueOf(&m.Shards[0]).Elem())
	var page, stats bytes.Buffer
	if err := m.Registry().WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	if err := m.Registry().WriteStats(&stats); err != nil {
		t.Fatal(err)
	}
	for name, val := range want {
		if !regexp.MustCompile(`(?m) ` + val + `$`).MatchString(page.String()) {
			t.Errorf("%s (= %s) is not on /metrics", name, val)
		}
		if !regexp.MustCompile(`=` + val + `\b`).MatchString(stats.String()) {
			t.Errorf("%s (= %s) is not on \\stats:\n%s", name, val, stats.String())
		}
	}
}

// TestCoordinatorServes: a 2-shard cluster answers single-node queries,
// drill-downs (one shard request each), and inserts, all bit-exact against
// an in-process twin engine, and rejections carry the twin's exact text.
func TestCoordinatorServes(t *testing.T) {
	g, data := buildCube(t)
	twin := loadEngine(t, data)
	s0 := startShardOn(t, data, "127.0.0.1:0")
	s1 := startShardOn(t, data, "127.0.0.1:0")
	defer s0.stop(t)
	defer s1.stop(t)

	co, err := New(f2db.NewPlanner(g, 0), []string{s0.addr, s1.addr}, testCoordOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	// One full insert batch (time advance) through the coordinator and the
	// twin; the cluster must then forecast from the advanced state.
	ins := "INSERT INTO facts VALUES " +
		"('P1','C1',31), ('P1','C2',32), ('P1','C3',33), ('P1','C4',34), " +
		"('P2','C1',35), ('P2','C2',36), ('P2','C3',37), ('P2','C4',38)"
	if err := co.Exec(ins); err != nil {
		t.Fatalf("coordinator exec: %v", err)
	}
	if err := twin.Exec(ins); err != nil {
		t.Fatalf("twin exec: %v", err)
	}
	waitFor(t, "replicas caught up", co.CaughtUp)

	for _, q := range []string{
		"SELECT time, sales FROM facts WHERE product = 'P1' AND city = 'C2'",
		"SELECT time, SUM(sales) FROM facts WHERE region = 'R2' AS OF now() + '2 steps'",
		"SELECT time, SUM(sales) FROM facts",
		"SELECT time, SUM(sales) FROM facts GROUP BY time, city AS OF now() + '1 day' WITH INTERVAL 95",
		"SELECT time, SUM(sales) FROM facts WHERE product = 'P2' GROUP BY time, region AS OF now() + '3 steps'",
	} {
		got, err := co.Query(q)
		if err != nil {
			t.Fatalf("%s: coordinator: %v", q, err)
		}
		want, err := twin.Query(q)
		if err != nil {
			t.Fatalf("%s: twin: %v", q, err)
		}
		sameResult(t, q, got, want)
	}

	// Rejections: the coordinator's planner and the shard engines share the
	// parser, so the texts match the twin's byte-for-byte. The last two
	// once crashed an engine.
	for _, q := range []string{
		"SELECT time, sales FROM facts WHERE planet = 'X'",
		"SELECT time, sales FROM facts WHERE city = 'C9'",
		"SELECT time, sales FROM facts AS OF now() + 'someday'",
		"SELECT time, sales FROM facts AS OF now() + '2 steps' WITH INTERVAL NaN",
		"SELECT time, sales FROM facts AS OF now() + '9223372036854775807 steps'",
	} {
		_, cerr := co.Query(q)
		_, terr := twin.Query(q)
		if cerr == nil || terr == nil || cerr.Error() != terr.Error() {
			t.Fatalf("%s: coordinator says %v, twin says %v", q, cerr, terr)
		}
	}
	if err := co.Exec("INSERT INTO facts VALUES ()"); err == nil {
		t.Fatal("malformed INSERT accepted")
	}

	if stats := co.StatsText(); !strings.Contains(stats, "servable=2") {
		t.Fatalf("StatsText: %q", stats)
	}
	if inserts, _ := co.Counts(); inserts != 8 {
		t.Fatalf("Counts: %d inserts, want 8", inserts)
	}
	if m, width := co.Metrics(), co.met.FanoutWidth.Snapshot(); m.Fanouts.Load() != 2 || m.FanoutSubqueries.Load() != 2 || width.Sum != 4+2 {
		t.Fatalf("2 drill-downs (4 and 2 groups) must cost one shard request each: fanouts %d, requests %d, groups %d",
			m.Fanouts.Load(), m.FanoutSubqueries.Load(), width.Sum)
	}
}

// TestCoordinatorBackend: the coordinator served through the wire server
// (the f2dbd -coordinator deployment shape) answers fclient requests,
// including TInfo and TStats.
func TestCoordinatorBackend(t *testing.T) {
	g, data := buildCube(t)
	s0 := startShardOn(t, data, "127.0.0.1:0")
	defer s0.stop(t)
	co, err := New(f2db.NewPlanner(g, 0), []string{s0.addr}, testCoordOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	front := server.NewBackend(co, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- front.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = front.Shutdown(ctx)
		<-done
	}()

	cl, err := fclient.Dial(ln.Addr().String(), fclient.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	res, err := cl.Query("SELECT time, SUM(sales) FROM facts GROUP BY time, region")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("expected 2 region groups, got %d", len(res.Groups))
	}
	info, err := cl.Info()
	if err != nil {
		t.Fatalf("info: %v", err)
	}
	if info != (wire.Info{}) {
		t.Fatalf("front server reports %+v before any insert, want zero counts", info)
	}
	stats, err := cl.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if !strings.Contains(stats, "coordinator shards=1") {
		t.Fatalf("stats: %q", stats)
	}
}

// TestCoordinatorFailover: with one of two shards gone, every query still
// answers (from the surviving replica), inserts still apply, and the
// shard-state metrics reflect the outage.
func TestCoordinatorFailover(t *testing.T) {
	g, data := buildCube(t)
	twin := loadEngine(t, data)
	s0 := startShardOn(t, data, "127.0.0.1:0")
	s1 := startShardOn(t, data, "127.0.0.1:0")
	defer s0.stop(t)

	co, err := New(f2db.NewPlanner(g, 0), []string{s0.addr, s1.addr}, testCoordOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	s1.stop(t) // outage

	ins := "INSERT INTO facts VALUES " +
		"('P1','C1',31), ('P1','C2',32), ('P1','C3',33), ('P1','C4',34), " +
		"('P2','C1',35), ('P2','C2',36), ('P2','C3',37), ('P2','C4',38)"
	if err := co.Exec(ins); err != nil {
		t.Fatalf("exec during outage: %v", err)
	}
	if err := twin.Exec(ins); err != nil {
		t.Fatal(err)
	}

	// Query every node: shard 1's partition must fail over to shard 0.
	for id := 0; id < g.NumNodes(); id++ {
		got, err := co.Query(querySQLFor(g, id))
		if err != nil {
			t.Fatalf("node %d during outage: %v", id, err)
		}
		want, err := twin.Query(querySQLFor(g, id))
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, querySQLFor(g, id), got, want)
	}
	// Drill-downs go whole to the owner of their first group: those owned by
	// the dead shard must be answered, whole, by the survivor.
	orphaned := 0
	for _, q := range []string{
		"SELECT time, SUM(sales) FROM facts GROUP BY time, city AS OF now() + '2 steps'",
		"SELECT time, SUM(sales) FROM facts GROUP BY time, region AS OF now() + '2 steps' WITH INTERVAL 90",
		"SELECT time, SUM(sales) FROM facts GROUP BY time, product",
		"SELECT time, SUM(sales) FROM facts WHERE product = 'P1' GROUP BY time, city AS OF now() + '1 steps'",
		"SELECT time, SUM(sales) FROM facts WHERE product = 'P2' GROUP BY time, region AS OF now() + '1 steps'",
		"SELECT time, AVG(sales) FROM facts WHERE region = 'R2' GROUP BY time, product AS OF now() + '3 steps'",
	} {
		plan, err := f2db.NewPlanner(g, 0).RouteQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if ShardFor(plan.Nodes[0], 2) == 1 {
			orphaned++
		}
		got, err := co.Query(q)
		if err != nil {
			t.Fatalf("%s during outage: %v", q, err)
		}
		want, err := twin.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, q, got, want)
	}
	if orphaned == 0 {
		t.Fatal("no drill-down of the set is owned by the dead shard: pick others")
	}
	waitFor(t, "down shard noticed", func() bool { return co.Metrics().ShardsDown.Load() == 1 })
	if co.Metrics().Failovers.Load() == 0 {
		t.Fatal("no failovers recorded despite a dead owner")
	}
	if stats := co.StatsText(); !strings.Contains(stats, "state=down") {
		t.Fatalf("StatsText does not show the outage: %q", stats)
	}
}

// TestReplicaRefitTwin: replicas that served different reads hold the same
// models. Two shards re-fit lazily under TimeBased{Every: 2}; every read of
// six time points goes to shard 0, so only it re-fits along the way. Then
// shard 0 stops and the coordinator fails every read over to shard 1, whose
// first queries re-fit everything at once: the answers are bit-identical
// to shard 0's last ones, with no ReestimateInvalid call anywhere.
func TestReplicaRefitTwin(t *testing.T) {
	g, data := buildCube(t)
	load := func() *f2db.DB {
		db, err := f2db.LoadDatabase(bytes.NewReader(data), f2db.Options{Strategy: f2db.TimeBased{Every: 2}})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	s0, s1 := serveShard(t, load(), "127.0.0.1:0"), serveShard(t, load(), "127.0.0.1:0")
	defer s1.stop(t)
	co, err := New(f2db.NewPlanner(g, 0), []string{s0.addr, s1.addr}, testCoordOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	cl, err := fclient.Dial(s0.addr, fclient.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	query := func(id int) string {
		return strings.Replace(querySQLFor(g, id), "'1 steps'", "'4 steps' WITH INTERVAL 90", 1)
	}
	want := make([]*f2db.Result, g.NumNodes())
	for tp := 0; tp < 6; tp++ {
		if err := co.Exec(batchInsertSQL(10 * tp * tp)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "replicas caught up", co.CaughtUp)
		for id := range want {
			if want[id], err = cl.Query(query(id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s0.db.Metrics().Reestimations == 0 || s1.db.Metrics().Reestimations != 0 {
		t.Fatalf("shard 0 re-fitted %d times and shard 1 %d: want shard 0 alone",
			s0.db.Metrics().Reestimations, s1.db.Metrics().Reestimations)
	}
	s0.stop(t)
	for id, w := range want {
		got, err := co.Query(query(id))
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, query(id), got, w)
	}
	if s1.db.Metrics().Reestimations == 0 {
		t.Fatal("shard 1 re-fitted nothing: the twin compared untouched models")
	}
}

// TestDrillDownOneTimePoint: a drill-down is answered from one time point.
// A writer completes time points through the coordinator while readers
// issue drill-downs; every answer's groups must start at the same time
// index, and the whole answer must be byte-identical to what a twin engine
// answers at that time point. (A per-member split could not promise this:
// sub-queries issued either side of a completed time point came back from
// two.)
func TestDrillDownOneTimePoint(t *testing.T) {
	const points = 24
	drills := []string{
		"SELECT time, SUM(sales) FROM facts GROUP BY time, city AS OF now() + '2 steps'",
		"SELECT time, SUM(sales) FROM facts WHERE product = 'P2' GROUP BY time, city AS OF now() + '1 steps' WITH INTERVAL 95",
		"SELECT time, AVG(sales) FROM facts GROUP BY time, region AS OF now() + '3 steps'",
		"SELECT time, SUM(sales) FROM facts WHERE region = 'R1' GROUP BY time, product AS OF now() + '2 steps'",
	}
	g, data := buildCube(t)
	// want[q][T] is the twin's encoded answer to drills[q] at the time point
	// whose forecasts start at time index T.
	twin := loadEngine(t, data)
	want := make([]map[int][]byte, len(drills))
	for q := range want {
		want[q] = make(map[int][]byte)
	}
	for p := 0; p <= points; p++ {
		if p > 0 {
			if err := twin.Exec(batchInsertSQL(p * 10)); err != nil {
				t.Fatal(err)
			}
		}
		for q, sql := range drills {
			res, err := twin.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			want[q][res.Rows[0].T] = wire.AppendResult(nil, res)
		}
	}

	for _, cacheSize := range []int{0, 64} {
		t.Run(fmt.Sprintf("CacheSize=%d", cacheSize), func(t *testing.T) {
			s0 := startShardOn(t, data, "127.0.0.1:0")
			s1 := startShardOn(t, data, "127.0.0.1:0")
			defer s0.stop(t)
			defer s1.stop(t)
			opts := testCoordOpts(t)
			opts.CacheSize = cacheSize
			co, err := New(f2db.NewPlanner(g, 0), []string{s0.addr, s1.addr}, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer co.Close()

			var written atomic.Bool
			var reads atomic.Int64
			var wg sync.WaitGroup
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := r; !written.Load(); i++ {
						q := i % len(drills)
						res, err := co.Query(drills[q])
						if err != nil {
							t.Errorf("%s: %v", drills[q], err)
							return
						}
						t0 := res.Groups[0].Rows[0].T
						for _, grp := range res.Groups {
							if grp.Rows[0].T != t0 {
								t.Errorf("%s: group %q starts at time %d, group %q at %d: two time points in one answer",
									drills[q], res.Groups[0].Member, t0, grp.Member, grp.Rows[0].T)
								return
							}
						}
						if !bytes.Equal(wire.AppendResult(nil, res), want[q][t0]) {
							t.Errorf("%s: the answer at time %d differs from the twin's", drills[q], t0)
							return
						}
						reads.Add(1)
					}
				}(r)
			}
			// Each time point lands among reads in flight: the writer moves on
			// once a few more answers came back.
			for p := 1; p <= points && !t.Failed(); p++ {
				seen := reads.Load()
				if err := co.Exec(batchInsertSQL(p * 10)); err != nil {
					t.Errorf("time point %d: %v", p, err)
					break
				}
				waitFor(t, "readers to answer across the time point", func() bool { return reads.Load() >= seen+8 || t.Failed() })
			}
			written.Store(true)
			wg.Wait()
			t.Logf("%d drill-downs answered across %d time points", reads.Load(), points)
		})
	}
}

// querySQLFor renders a single-node forecast query for any graph node.
func querySQLFor(g *cube.Graph, id int) string {
	sql := "SELECT time, SUM(sales) FROM facts"
	first := true
	for d, cell := range g.CoordOf(id) {
		dim := &g.Dims[d]
		if cell.IsAll(dim) {
			continue
		}
		if first {
			sql += " WHERE "
			first = false
		} else {
			sql += " AND "
		}
		sql += dim.Levels[cell.Level] + " = '" + cell.Value + "'"
	}
	return sql + " AS OF now() + '1 steps'"
}

// TestCoordinatorExplainParity: EXPLAIN through the coordinator behaves
// exactly like EXPLAIN against a shard over a direct connection (both
// forward the statement verbatim).
func TestCoordinatorExplainParity(t *testing.T) {
	g, data := buildCube(t)
	s0 := startShardOn(t, data, "127.0.0.1:0")
	defer s0.stop(t)
	co, err := New(f2db.NewPlanner(g, 0), []string{s0.addr}, testCoordOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	direct, err := fclient.Dial(s0.addr, fclient.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()

	// An EXPLAIN answer is a plan without groups: it must cross the wire on
	// both routes (a decoder that refuses it makes the direct client fail and
	// the coordinator mark the shard down), and say the same on both.
	const q = "EXPLAIN SELECT time, SUM(sales) FROM facts WHERE region = 'R1'"
	cres, err := co.Query(q)
	if err != nil {
		t.Fatalf("EXPLAIN through the coordinator: %v", err)
	}
	dres, err := direct.Query(q)
	if err != nil {
		t.Fatalf("EXPLAIN against the shard: %v", err)
	}
	if cres.Plan == "" || cres.Plan != dres.Plan {
		t.Fatalf("plans differ or are empty: %q vs %q", cres.Plan, dres.Plan)
	}
	if len(cres.Groups) != 0 || len(dres.Groups) != 0 {
		t.Fatalf("an EXPLAIN answer carries groups: %d through the coordinator, %d direct", len(cres.Groups), len(dres.Groups))
	}
	if got := co.Metrics().Failovers.Load(); got != 0 {
		t.Fatalf("EXPLAIN caused %d failovers", got)
	}
}

// garbledBackend serves an engine, but while garble is set it answers every
// query with its RESULT payload cut three bytes short: frames arrive whole,
// the answers inside them do not decode.
type garbledBackend struct {
	db     *f2db.DB
	garble atomic.Bool
}

func (b *garbledBackend) Query(sql string) (*f2db.Result, error) { return b.db.Query(sql) }
func (b *garbledBackend) Exec(sql string) error                  { return b.db.Exec(sql) }
func (b *garbledBackend) StatsText() string                      { return "" }
func (b *garbledBackend) Counts() (uint64, uint64) {
	st := b.db.Stats()
	return uint64(st.Inserts), uint64(st.Batches)
}

func (b *garbledBackend) AppendQuery(dst, sql []byte) ([]byte, error) {
	res, err := b.db.Query(string(sql))
	if err != nil {
		return dst, err
	}
	out := wire.AppendResult(dst, res)
	if b.garble.Load() {
		out = out[:len(out)-3]
	}
	return out, nil
}

// TestShardAnswersGarbage: a shard whose RESULT frame carries a truncated
// payload gets a non-retryable error back to the caller at once — no
// failover, no shard marked down, nothing cached — and once the shard
// answers properly the same statement gets the real answer.
func TestShardAnswersGarbage(t *testing.T) {
	g, data := buildCube(t)
	b := &garbledBackend{db: loadEngine(t, data)}
	b.garble.Store(true)
	srv := server.NewBackend(b, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer (&testShard{srv: srv, done: done}).stop(t)
	opts := testCoordOpts(t)
	opts.CacheSize = 16
	co, err := New(f2db.NewPlanner(g, 0), []string{ln.Addr().String()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	q := querySQLFor(g, g.BaseIDs[0])
	start := time.Now()
	if _, err := co.AppendQuery(nil, []byte(q)); err == nil || fclient.IsRetryable(err) || !errors.Is(err, fclient.ErrMalformed) {
		t.Fatalf("garbled answer: err = %v, want a non-retryable fclient.ErrMalformed", err)
	}
	if d := time.Since(start); d > queryWait/2 {
		t.Fatalf("garbled answer took %v: the coordinator retried it", d)
	}
	m := co.Metrics()
	if m.ShardsDown.Load() != 0 || m.Failovers.Load() != 0 || m.Shards[0].Requests.Load() != 1 {
		t.Fatalf("down=%d failovers=%d requests=%d, want 0, 0 and 1",
			m.ShardsDown.Load(), m.Failovers.Load(), m.Shards[0].Requests.Load())
	}
	if n := co.cache.Len(); n != 1 {
		t.Fatalf("%d entries after a garbled answer, want 1", n)
	}
	if _, _, hit, _ := co.cache.Lookup(f2db.NormalizeSQL(q), route(co.planner, q)); hit {
		t.Fatal("the entry after a garbled answer holds a result")
	}

	b.garble.Store(false)
	got, err := co.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := b.db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "after the shard was fixed", got, want)
	if m.CacheMisses.Load() != 2 {
		t.Fatalf("misses = %d, want 2: the garbled answer was cached", m.CacheMisses.Load())
	}
}

// TestShardUnreachableAtStart: the coordinator alone decides a shard's
// health, with no client options tuned.
//  1. A shard down when New runs is counted down at once, and on first
//     contact it is placed at its batch count — its snapshot already holds
//     a batch, as its peer's does, where the log starts. It replays what
//     was logged while it was away and answers every node exactly as a
//     twin does.
//  2. A shard restarted after an outage is served again within one probe
//     interval of coming back: no fclient state delays the probe.
func TestShardUnreachableAtStart(t *testing.T) {
	g, data := buildCube(t)
	seed := loadEngine(t, data)
	if err := seed.Exec(batchInsertSQL(0)); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := f2db.SaveDatabase(&snap, seed); err != nil {
		t.Fatal(err)
	}
	twin := loadEngine(t, snap.Bytes())

	s0 := startShardOn(t, snap.Bytes(), "127.0.0.1:0")
	defer s0.stop(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr1 := ln.Addr().String()
	_ = ln.Close()
	co, err := New(f2db.NewPlanner(g, 0), []string{s0.addr, addr1}, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	m := co.Metrics()
	if got := m.ShardsDown.Load(); got != 1 {
		t.Fatalf("ShardsDown = %d right after New, want 1", got)
	}
	exec := func(v int) {
		t.Helper()
		if err := co.Exec(batchInsertSQL(v)); err != nil {
			t.Fatal(err)
		}
		if err := twin.Exec(batchInsertSQL(v)); err != nil {
			t.Fatal(err)
		}
	}
	exec(10)

	s1 := startShardOn(t, snap.Bytes(), addr1)
	defer s1.stop(t)
	waitFor(t, "shard 1 to catch up", co.CaughtUp)
	if dead, down := m.ShardsDead.Load(), m.ShardsDown.Load(); dead != 0 || down != 0 {
		t.Fatalf("after first contact: ShardsDead = %d, ShardsDown = %d, want 0 and 0", dead, down)
	}
	exec(20)
	waitFor(t, "shard 1 to apply the next batch", co.CaughtUp)
	direct, err := fclient.Dial(addr1, fclient.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	for id := 0; id < g.NumNodes(); id++ {
		q := querySQLFor(g, id)
		got, err := direct.Query(q)
		if err != nil {
			t.Fatalf("shard 1, node %d: %v", id, err)
		}
		want, err := twin.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "shard 1 "+q, got, want)
	}

	// A second cluster: shard 1 goes away for 300 ms and comes back as a
	// fresh process.
	r0 := startShardOn(t, data, "127.0.0.1:0")
	defer r0.stop(t)
	r1 := startShardOn(t, data, "127.0.0.1:0")
	co2, err := New(f2db.NewPlanner(g, 0), []string{r0.addr, r1.addr}, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	r1.stop(t)
	if err := co2.Exec(batchInsertSQL(30)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the down mark", func() bool { return co2.Metrics().ShardsDown.Load() == 1 })
	time.Sleep(300 * time.Millisecond)
	r1 = startShardOn(t, data, r1.addr)
	defer r1.stop(t)
	back := time.Now()
	for !co2.CaughtUp() {
		if d := time.Since(back); d > 400*time.Millisecond {
			t.Fatalf("restarted shard not caught up %v after it came back", d)
		}
		time.Sleep(time.Millisecond)
	}
	t.Logf("restarted shard caught up %v after it came back", time.Since(back))
}
