package main

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// testConfig is a run small enough for `go test`: a 961-node cube, a tenth
// of the warm-up, and ten windows of 0.1 s.
func testConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 1, seconds: 1, trace: trace,
		out:          t.TempDir(),
		servingNodes: 1000, advisorNodes: 500, warmDiv: 10,
	}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload both ways and holds
// the output against BENCHMARK.json: exactly the declared metrics, each
// with its declared unit, no failed operation, and the twin agrees.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range sp.Workloads {
		declared = append(declared, w.Name)
	}
	if !reflect.DeepEqual(declared, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, bench runs %v", declared, workloadNames)
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
			}
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				t.Parallel()
				res, err := run(testConfig(t, w, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("declared metric %s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s: unit %q, declared %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s: value %v", m.Name, got.Value)
					case !trace && got.Value <= 0:
						t.Errorf("end-to-end metric %s is %v; it must never be 0", m.Name, got.Value)
					}
				}
				if len(res.Metrics) != len(want) {
					for name := range res.Metrics {
						if _, ok := sp.metric(name); !ok {
							t.Errorf("emitted metric %s is not declared", name)
						}
					}
					t.Errorf("emitted %d metrics, declared %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}

// even spreads n operations of the given latency evenly over [from, to).
func even(n int, from, to, lat int64) []sample {
	out := make([]sample, n)
	for i := range out {
		out[i] = sample{done: from + (to-from)*int64(i)/int64(n), lat: lat, units: 1}
	}
	return out
}

func TestWindowMedianIgnoresOneBurst(t *testing.T) {
	const win = 1_000_000_000
	var ops []sample
	for w := int64(0); w < numWindows; w++ {
		n, lat := 2000, int64(50_000)
		if w == 3 { // a noisy neighbour: a third of the work at ten times the latency
			n, lat = 700, 500_000
		}
		ops = append(ops, even(n, w*win+lat, (w+1)*win, lat)...)
	}
	got := windows([][]sample{ops}, numWindows*win)
	if got.p50 != 50_000 || got.p99 != 50_000 {
		t.Errorf("p50 %v p99 %v, want the quiet windows' 50000", got.p50, got.p99)
	}
	if math.Abs(got.throughput-2000) > 1 {
		t.Errorf("throughput %v, want the quiet windows' 2000/s", got.throughput)
	}
	if got.samples != 9*2000+700 {
		t.Errorf("samples %d", got.samples)
	}
}

func TestNoP99BelowThousandSamplesPerWindow(t *testing.T) {
	const win = 1_000_000_000
	for _, tc := range []struct {
		perWindow int
		want      bool
	}{{minTailSamples - 1, false}, {minTailSamples, true}} {
		var ops []sample
		for w := int64(0); w < numWindows; w++ {
			ops = append(ops, even(tc.perWindow, w*win+1000, (w+1)*win, 1000)...)
		}
		got := windows([][]sample{ops}, numWindows*win)
		if (got.p99 != 0) != tc.want {
			t.Errorf("%d samples per window: p99 %v, reported should be %v", tc.perWindow, got.p99, tc.want)
		}
		if got.p50 != 1000 {
			t.Errorf("p50 %v", got.p50)
		}
	}
	// The whole-phase tail needs ten samples beyond the percentile.
	if p, _ := tail([][]sample{even(9_999, 0, win, 7)}, 0.999); p != 0 {
		t.Errorf("p999 over 9999 samples reported as %v", p)
	}
	if p, hi := tail([][]sample{even(10_000, 0, win, 7)}, 0.999); p != 7 || hi != 7 {
		t.Errorf("p999 over 10000 samples: %v, max %v", p, hi)
	}
}

// A few long operations per window must not be counted in whole numbers:
// back-to-back operations of 0.3 windows each are 3.33 per window.
func TestThroughputOfLongOperationsIsNotQuantised(t *testing.T) {
	const win, lat = 1_000_000_000, 300_000_000
	var ops []sample
	for done := int64(lat); done <= numWindows*win; done += lat {
		ops = append(ops, sample{done: done, lat: lat, units: 1})
	}
	got := windows([][]sample{ops}, numWindows*win)
	if want := 1e9 / float64(lat); math.Abs(got.throughput-want) > 1e-9 {
		t.Errorf("throughput %v, want %v", got.throughput, want)
	}
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	g, err := newGraph(1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{wlReadHot, wlReadCold, wlIngest, wlMixedRW} {
		a := buildPlan(g, w, 7, closedClients, 1e8, 1e9)
		b := buildPlan(g, w, 7, closedClients, 1e8, 1e9)
		c := buildPlan(g, w, 8, closedClients, 1e8, 1e9)
		if a.hash() != b.hash() {
			t.Errorf("%s: same seed, different plans", w)
		}
		if a.hash() == c.hash() {
			t.Errorf("%s: different seeds, same plan", w)
		}
		if !reflect.DeepEqual(a.stmts[:a.hot], b.stmts[:b.hot]) || !reflect.DeepEqual(a.arrivals, b.arrivals) {
			t.Errorf("%s: same seed, different hot set or arrival schedule", w)
		}
		if w == wlMixedRW && (reflect.DeepEqual(a.stmts[:a.hot], c.stmts[:c.hot]) || reflect.DeepEqual(a.arrivals, c.arrivals)) {
			t.Errorf("%s: different seeds, same hot set or arrival schedule", w)
		}
	}
	hot := buildPlan(g, wlReadHot, 7, closedClients, 1e8, 1e9)
	if hot.hot != hotStatements {
		t.Errorf("hot set of %d statements, want %d", hot.hot, hotStatements)
	}
	mixed := buildPlan(g, wlMixedRW, 7, closedClients, 1e8, 1e9)
	if rate := float64(len(mixed.arrivals)); math.Abs(rate-mixedReadRate) > 0.1*mixedReadRate {
		t.Errorf("%v arrivals in one second, want about %d", rate, mixedReadRate)
	}
	for i := 1; i < len(mixed.arrivals); i++ {
		if mixed.arrivals[i].due < mixed.arrivals[i-1].due {
			t.Fatal("arrival schedule not in time order")
		}
	}
}

func TestSpanParentsAndCoverage(t *testing.T) {
	r := newRecorder()
	r.spans = []span{
		{Name: "shard1.query", Start: 25, End: 130, Parent: -1, Op: -1}, // outlives the operation: background
		{Name: "shard0.query", Start: 20, End: 60, Parent: -1, Op: -1},
		{Name: "coord.query", Start: 10, End: 90, Parent: -1, Op: -1},
		{Name: "client.query", Start: 5, End: 100, Parent: -1, Op: 4},
		{Name: "shard1.query", Start: 50, End: 80, Parent: -1, Op: -1}, // overlaps shard0: parallel fan-out
	}
	spans := r.take()
	byName := map[string]span{}
	for _, s := range spans {
		if s.End != 130 {
			byName[s.Name] = s
		}
	}
	if c := byName["coord.query"]; spans[c.Parent].Name != "client.query" || c.Op != 4 {
		t.Errorf("coord span: parent %d op %d", c.Parent, c.Op)
	}
	for _, name := range []string{"shard0.query", "shard1.query"} {
		if s := byName[name]; spans[s.Parent].Name != "coord.query" || s.Op != 4 {
			t.Errorf("%s: parent %d op %d", name, s.Parent, s.Op)
		}
	}
	for _, s := range spans {
		if s.End == 130 && (s.Parent != -1 || s.Op != -1) {
			t.Errorf("span outliving the operation got parent %d op %d", s.Parent, s.Op)
		}
	}
	b := analyse(spans, "query")
	// client 95 = front 15 + coordinator self 20 + shards covering [20, 80).
	if b.ops != 1 || b.client != 95 || b.frontSelf != 15 || b.coordSelf != 20 || b.shard != 60 || b.shardFrac != 1 {
		t.Errorf("budget %+v", b)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, …, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles %v %v %v", q1, q2, q3)
	}
}

func TestVerdictNeverCallsANoisyMetricSame(t *testing.T) {
	bound := 0.05
	lower := metricSpec{Name: "op_p50_us", Better: "lower", Bound: &bound}
	higher := metricSpec{Name: "throughput_per_s", Better: "higher", Bound: &bound}
	for _, tc := range []struct {
		ms                     metricSpec
		a1, a2, a3, b1, b2, b3 float64
		want                   string
	}{
		{lower, 99, 100, 101, 99, 101, 102, "same"},
		{lower, 99, 100, 101, 109, 110, 111, "worse"},
		{lower, 99, 100, 101, 89, 90, 91, "better"},
		{higher, 99, 100, 101, 89, 90, 91, "worse"},
		{higher, 99, 100, 101, 109, 110, 111, "better"},
		{lower, 90, 100, 110, 99, 101, 102, "unresolved"}, // A's own spread is wider than the bound
		{lower, 99, 100, 101, 95, 110, 125, "unresolved"},
		{lower, 90, 100, 110, 80, 100, 120, "unresolved"}, // equal medians do not make a noisy metric same
		{lower, 100, 100, 100, 100, 100, 100, "same"},
	} {
		if got := verdict(tc.ms, tc.a1, tc.a2, tc.a3, tc.b1, tc.b2, tc.b3); got != tc.want {
			t.Errorf("%s A=%v B=%v: %s, want %s", tc.ms.Name, tc.a2, tc.b2, got, tc.want)
		}
	}
}
