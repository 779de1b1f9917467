// Package metrics owns the two text formats the system reports its
// counters in: the Prometheus 0.0.4 exposition served on /metrics and the
// name=value lines of \stats. The packages that count things keep their
// own atomic fields and describe each once to a Registry, so the request
// path never sees this package and a new metric is one registration line
// that lands on both surfaces under one name.
package metrics

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
)

// sample is one labelled series: value is set in a counter or gauge
// family, hist in a histogram family.
type sample struct {
	labels string
	value  func() float64
	hist   func() HistogramSnapshot
}

// family is one metric family or, with no name, a \stats line break.
type family struct {
	name, help string
	unit       float64 // histogram families: observed units per rendered unit
	samples    []sample
	optional   bool
}

// Registry is an ordered list of metric families; the zero value is ready
// to use. One goroutine describes it, then any number may render it while
// the registered values change. Registering under a name again adds a
// sample to that family, told apart by its labels (built with Label). A
// family of plain values is a counter if its name ends in _total and a
// gauge otherwise — the format's own naming rule, so a family cannot be
// declared one thing and named another.
type Registry struct {
	fill func(*Registry)
	fams []family
}

// Dynamic returns a registry that fill describes afresh at every render —
// for a source that renders from a point-in-time snapshot (the engine)
// rather than from live atomics.
func Dynamic(fill func(*Registry)) *Registry { return &Registry{fill: fill} }

// Break starts a new \stats line; an optional line is left out while
// every sample on it is zero. /metrics ignores breaks, so its family set
// never depends on what has happened so far.
func (r *Registry) Break(optional bool) { r.fams = append(r.fams, family{optional: optional}) }

func (r *Registry) add(name, help string, unit float64, labels []string, s sample) {
	i := slices.IndexFunc(r.fams, func(f family) bool { return f.name == name })
	if i < 0 {
		i = len(r.fams)
		r.fams = append(r.fams, family{name: name, help: help, unit: unit})
	}
	s.labels = strings.Join(labels, ",")
	r.fams[i].samples = append(r.fams[i].samples, s)
}

// Int registers a live value.
func (r *Registry) Int(name, help string, v *atomic.Int64, labels ...string) {
	r.add(name, help, 0, labels, sample{value: func() float64 { return float64(v.Load()) }})
}

// Value registers a fixed value (in a Dynamic registry, the snapshot's).
func (r *Registry) Value(name, help string, v float64, labels ...string) {
	r.add(name, help, 0, labels, sample{value: func() float64 { return v }})
}

// Histogram registers a live histogram. unit is how many observed units
// make one rendered unit: 1e9 renders nanoseconds as seconds, 1 renders
// plain counts.
func (r *Registry) Histogram(name, help string, unit float64, h *Histogram, labels ...string) {
	r.add(name, help, unit, labels, sample{hist: h.Snapshot})
}

// HistogramValue registers a fixed histogram (see Value, Histogram).
func (r *Registry) HistogramValue(name, help string, unit float64, s HistogramSnapshot, labels ...string) {
	r.add(name, help, unit, labels, sample{hist: func() HistogramSnapshot { return s }})
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Label renders one name="value" pair, escaped as the format requires.
func Label(name, value string) string { return name + `="` + labelEscaper.Replace(value) + `"` }

// families returns what to render, described first if r is dynamic.
func (r *Registry) families() []family {
	if r.fill == nil {
		return r.fams
	}
	var t Registry
	r.fill(&t)
	return t.fams
}

// formatValue prints integral values without an exponent, so a counter
// reads the same whether its source was an integer or a float.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// series renders name or name{labels}; the first label list may be empty.
func series(name string, labels ...string) string {
	if l := strings.TrimPrefix(strings.Join(labels, ","), ","); l != "" {
		return name + "{" + l + "}"
	}
	return name
}

// WritePrometheus renders every family in the text exposition format
// (cumulative histogram buckets, empty ones left out).
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b []byte
	for _, f := range r.families() {
		if f.name == "" {
			continue
		}
		kind := "gauge"
		if f.unit != 0 {
			kind = "histogram"
		} else if strings.HasSuffix(f.name, "_total") {
			kind = "counter"
		}
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, kind)
		for _, s := range f.samples {
			if s.hist == nil {
				b = fmt.Appendf(b, "%s %s\n", series(f.name, s.labels), formatValue(s.value()))
				continue
			}
			h, cum := s.hist(), int64(0)
			for i, c := range h.Buckets[:histBuckets] {
				if cum += c; c > 0 {
					le := Label("le", formatValue(float64(int64(1)<<i)/f.unit))
					b = fmt.Appendf(b, "%s %d\n", series(f.name+"_bucket", s.labels, le), cum)
				}
			}
			b = fmt.Appendf(b, "%s %d\n", series(f.name+"_bucket", s.labels, `le="+Inf"`), h.Count)
			b = fmt.Appendf(b, "%s %s\n", series(f.name+"_sum", s.labels), formatValue(float64(h.Sum)/f.unit))
			b = fmt.Appendf(b, "%s %d\n", series(f.name+"_count", s.labels), h.Count)
		}
	}
	_, err := w.Write(b)
	return err
}

// WriteStats renders every family for \stats under its /metrics name:
// name=value on one line per Break, then a line per non-empty histogram
// with its count, mean and upper-bound quantiles in rendered units.
func (r *Registry) WriteStats(w io.Writer) error {
	var b, hists []byte
	var toks []string
	optional, nonzero := false, false
	flush := func() {
		if len(toks) > 0 && (nonzero || !optional) {
			b = append(append(b, strings.Join(toks, " ")...), '\n')
		}
		b = append(b, hists...)
		toks, hists, nonzero = nil, nil, false
	}
	for _, f := range r.families() {
		if f.name == "" {
			flush()
			optional = f.optional
		}
		for _, s := range f.samples {
			if s.hist == nil {
				v := s.value()
				toks = append(toks, series(f.name, s.labels)+"="+formatValue(v))
				nonzero = nonzero || v != 0
			} else if h := s.hist(); h.Count > 0 {
				q := func(q float64) float64 { return h.Quantile(q) / f.unit }
				hists = fmt.Appendf(hists, "%s: count=%d mean=%.3g p50=%.3g p95=%.3g p99=%.3g max<=%.3g\n",
					series(f.name, s.labels), h.Count, float64(h.Sum)/float64(h.Count)/f.unit, q(.5), q(.95), q(.99), q(1))
			}
		}
	}
	flush()
	_, err := w.Write(b)
	return err
}

// Handler serves the registries, in order, as one /metrics page.
func Handler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, r := range regs {
			if r.WritePrometheus(w) != nil {
				return // the scraper hung up
			}
		}
	})
}

// histBuckets is the number of finite buckets: bucket i counts values in
// (2^(i-1), 2^i], so le is an inclusive upper bound and the last finite
// bound is 2^41 (~37 minutes in nanoseconds).
const histBuckets = 42

// Histogram is a unit-agnostic, lock-free log₂-bucketed histogram of
// non-negative integers (nanoseconds, fan-out widths). The zero value is
// ready to use; all methods are safe for concurrent use.
type Histogram struct {
	sum atomic.Int64
	// The last slot is the overflow: values above the last finite bound
	// count toward +Inf only.
	buckets [histBuckets + 1]atomic.Int64
}

// Observe records one value; negative values count as zero.
func (h *Histogram) Observe(v int64) {
	v = max(v, 0)
	h.buckets[min(bits.Len64(uint64(max(v, 1)-1)), histBuckets)].Add(1)
	h.sum.Add(v)
}

// HistogramSnapshot is a point-in-time copy of a Histogram, in observed
// units: Buckets[i] values were in (2^(i-1), 2^i], the last slot above
// every finite bound.
type HistogramSnapshot struct {
	Count, Sum int64
	Buckets    [histBuckets + 1]int64
}

// Snapshot copies the histogram. Count is the total of the bucket loads,
// so a snapshot taken while Observes land is still self-consistent (only
// Sum can trail by the few in flight).
func (h *Histogram) Snapshot() (s HistogramSnapshot) {
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	return s
}

// Quantile returns an upper bound on the q-quantile (q clamped to [0, 1])
// in observed units: the bound of the bucket holding that rank, +Inf if it
// overflowed, 0 when nothing was observed.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	rank := max(int64(min(max(q, 0), 1)*float64(s.Count)+0.5), 1)
	for i, c := range s.Buckets[:histBuckets] {
		if rank -= c; rank <= 0 {
			return float64(int64(1) << i)
		}
	}
	if s.Count == 0 {
		return 0
	}
	return math.Inf(1)
}
