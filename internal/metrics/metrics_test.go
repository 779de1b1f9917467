package metrics

import (
	"bytes"
	"math"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testRegistry registers one family of every kind over the given values.
func testRegistry(c, g *atomic.Int64, h *Histogram) *Registry {
	r := &Registry{}
	r.Int("demo_requests_total", "Requests.", c)
	r.Int("demo_active", "Live things.", g)
	r.Value("demo_seconds_total", "Busy time.", 1.5)
	r.Value("demo_by_type_total", "By type.", 1, Label("type", "a"))
	r.Break(true)
	r.Value("demo_optional_total", "Left out of \\stats while zero.", 0)
	r.Histogram("demo_width", "Widths.", 1, h)
	r.Histogram("demo_latency_seconds", "Latency.", 1e9, h, Label("shard", "0"))
	// A family's samples stay together however late they register.
	r.Value("demo_by_type_total", "By type.", 2, Label("type", "b"), Label("zone", `q"z`))
	return r
}

func TestGoldenExposition(t *testing.T) {
	var c, g atomic.Int64
	var h Histogram
	c.Store(3)
	g.Store(-1)
	for _, v := range []int64{1, 3, 4, 1024, 1 << 45} {
		h.Observe(v)
	}
	var b bytes.Buffer
	if err := testRegistry(&c, &g, &h).WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP demo_requests_total Requests.
# TYPE demo_requests_total counter
demo_requests_total 3
# HELP demo_active Live things.
# TYPE demo_active gauge
demo_active -1
# HELP demo_seconds_total Busy time.
# TYPE demo_seconds_total counter
demo_seconds_total 1.5
# HELP demo_by_type_total By type.
# TYPE demo_by_type_total counter
demo_by_type_total{type="a"} 1
demo_by_type_total{type="b",zone="q\"z"} 2
# HELP demo_optional_total Left out of \stats while zero.
# TYPE demo_optional_total counter
demo_optional_total 0
# HELP demo_width Widths.
# TYPE demo_width histogram
demo_width_bucket{le="1"} 1
demo_width_bucket{le="4"} 3
demo_width_bucket{le="1024"} 4
demo_width_bucket{le="+Inf"} 5
demo_width_sum 35184372089864
demo_width_count 5
# HELP demo_latency_seconds Latency.
# TYPE demo_latency_seconds histogram
demo_latency_seconds_bucket{shard="0",le="1e-09"} 1
demo_latency_seconds_bucket{shard="0",le="4e-09"} 3
demo_latency_seconds_bucket{shard="0",le="1.024e-06"} 4
demo_latency_seconds_bucket{shard="0",le="+Inf"} 5
demo_latency_seconds_sum{shard="0"} 35184.372089864
demo_latency_seconds_count{shard="0"} 5
`
	if got := b.String(); got != want {
		t.Fatalf("exposition differs\n--- got\n%s--- want\n%s", got, want)
	}

	rec := httptest.NewRecorder()
	Handler(testRegistry(&c, &g, &h), &Registry{}).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	if rec.Body.String() != want {
		t.Fatal("Handler output differs from WritePrometheus")
	}
}

func TestGoldenStats(t *testing.T) {
	var c, g atomic.Int64
	var h Histogram
	c.Store(3)
	h.Observe(1000)
	h.Observe(3000)
	var b bytes.Buffer
	if err := testRegistry(&c, &g, &h).WriteStats(&b); err != nil {
		t.Fatal(err)
	}
	const want = `demo_requests_total=3 demo_active=0 demo_seconds_total=1.5 demo_by_type_total{type="a"}=1 demo_by_type_total{type="b",zone="q\"z"}=2
demo_width: count=2 mean=2e+03 p50=1.02e+03 p95=4.1e+03 p99=4.1e+03 max<=4.1e+03
demo_latency_seconds{shard="0"}: count=2 mean=2e-06 p50=1.02e-06 p95=4.1e-06 p99=4.1e-06 max<=4.1e-06
`
	if got := b.String(); got != want {
		t.Fatalf("stats differ\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestDynamicDescribesPerRender: a dynamic registry reads its source at
// every render, not at construction.
func TestDynamicDescribesPerRender(t *testing.T) {
	n := 0.0
	r := Dynamic(func(r *Registry) {
		n++
		r.Value("demo_renders_total", "Renders.", n)
	})
	for _, want := range []string{"demo_renders_total=1\n", "demo_renders_total=2\n"} {
		var b bytes.Buffer
		if err := r.WriteStats(&b); err != nil {
			t.Fatal(err)
		}
		if b.String() != want {
			t.Fatalf("got %q, want %q", b.String(), want)
		}
	}
}

func TestLabelEscapes(t *testing.T) {
	if got, want := Label("addr", "a\"b\\c\nd"), `addr="a\"b\\c\nd"`; got != want {
		t.Fatalf("Label = %s, want %s", got, want)
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	var h Histogram
	// 100 observations at ~1µs, 10 at ~1ms, 1 at ~1s.
	for i := 0; i < 100; i++ {
		h.Observe(time.Microsecond.Nanoseconds())
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond.Nanoseconds())
	}
	h.Observe(time.Second.Nanoseconds())

	s := h.Snapshot()
	if s.Count != 111 {
		t.Fatalf("count = %d, want 111", s.Count)
	}
	var total int64
	for _, c := range s.Buckets {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket sum %d != count %d", total, s.Count)
	}
	// Quantiles are upper bounds: p50 lands in the 1µs bucket (le ≤ 2µs),
	// p99 at most in the 1ms bucket, p100 covers the 1s outlier.
	for _, tc := range []struct {
		q      float64
		lo, hi time.Duration
	}{{0.50, time.Microsecond, 2 * time.Microsecond}, {0.99, time.Millisecond, 2 * time.Millisecond}, {1, time.Second, 2 * time.Second}} {
		if q := time.Duration(s.Quantile(tc.q)); q < tc.lo || q > tc.hi {
			t.Fatalf("p%g = %v, want within [%v, %v]", 100*tc.q, q, tc.lo, tc.hi)
		}
	}
}

// TestHistogramEdgeCases: le is an inclusive upper bound, negatives clamp
// to zero, and a value above the last finite bound counts toward +Inf only.
func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	if q := h.Snapshot().Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", q)
	}
	for _, tc := range []struct {
		v      int64
		bucket int
	}{{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1 << 41, 41}, {1<<41 + 1, histBuckets}, {math.MaxInt64, histBuckets}} {
		var h Histogram
		h.Observe(tc.v)
		s := h.Snapshot()
		if s.Count != 1 || s.Buckets[tc.bucket] != 1 {
			t.Fatalf("Observe(%d): count %d, buckets %v; want bucket %d", tc.v, s.Count, s.Buckets, tc.bucket)
		}
		if tc.v < 0 && s.Sum != 0 {
			t.Fatalf("Observe(%d): sum %d, want 0", tc.v, s.Sum)
		}
	}
	h.Observe(int64(100 * time.Hour))
	s := h.Snapshot()
	if q := s.Quantile(1); !math.IsInf(q, 1) {
		t.Fatalf("overflowed quantile = %v, want +Inf", q)
	}
	if s.Quantile(-1) > s.Quantile(2) {
		t.Fatal("clamped quantiles out of order")
	}
	var r Registry
	r.Histogram("demo_latency_seconds", "Latency.", 1e9, &h)
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), `le="2199.023255552"`) || !strings.Contains(b.String(), `demo_latency_seconds_bucket{le="+Inf"} 1`) {
		t.Fatalf("overflow must count toward +Inf only:\n%s", b.String())
	}
}

func TestUpdatesDoNotAllocate(t *testing.T) {
	var c atomic.Int64
	var g atomic.Int64
	var h Histogram
	testRegistry(&c, &g, &h)
	if n := testing.AllocsPerRun(100, func() { c.Add(1); h.Observe(12345) }); n != 0 {
		t.Fatalf("updating registered values allocates %v objects, want 0", n)
	}
}
