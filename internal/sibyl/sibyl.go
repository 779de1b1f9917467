// Package sibyl is the self-forecasting control plane: it points the
// engine's own estimator stack (internal/forecast, warm-started through
// internal/optimize) at the engine's workload. Query arrivals are counted
// per normalized SQL template (the same f2db.NormalizeSQL key the plan
// cache and the coordinator's read cache use) into fixed-width time
// buckets; one warm-started SES or Holt-Winters model per hot template —
// plus one aggregate-QPS model — forecasts the next buckets; predictions
// are turned into actions (cache pre-warming, trough-scheduled
// maintenance, adaptive cache sizing) by pluggable Actuators.
//
// The design splits into a lock-free ingest path and a single-threaded
// control loop:
//
//   - ObserveTemplate is the telemetry hook on the query path. Known
//     templates cost one sync.Map load plus two atomic adds; only the
//     first arrival of a new template takes the registration mutex.
//   - Tick closes the current bucket: it rolls per-template counters into
//     bounded histories, decays EWMA rates, re-fits the models (warm
//     started from the previous optimum), classifies spikes and troughs,
//     and dispatches the resulting Prediction to the attached actuators
//     outside the engine mutex. Tick is exported so tests drive the clock
//     deterministically; Start runs a production ticker at the bucket
//     width (the ticker is the bucket clock — sibyl never reads wall time
//     itself).
//
// The package deliberately has no dependency on internal/f2db or
// internal/coord: both attach it through their own one-method telemetry
// interfaces, which *Engine satisfies structurally.
package sibyl

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cubefc/internal/forecast"
	"cubefc/internal/timeseries"
)

// Options configures the self-forecasting engine. The zero value is
// usable: every field has a documented default. MaxTemplates, HalfLife,
// MinHistory and EvictBelow are fields rather than constants because the
// table-bound and eviction tests need small values to reach those branches.
type Options struct {
	// Bucket is the telemetry bucket width (and the Start ticker period).
	// Default 1s.
	Bucket time.Duration
	// Horizon is the number of future buckets forecast each tick.
	// Default 1.
	Horizon int
	// MaxTemplates bounds the template table. When full, a new template
	// may replace the coldest tracked one (if that one's rate has decayed
	// below one arrival per bucket); otherwise the newcomer is dropped
	// and only counted in the aggregate. Default 512.
	MaxTemplates int
	// Season, when > 1, fits seasonal Holt-Winters with that period (in
	// buckets) once a template has two full seasons of history; shorter
	// histories and Season <= 1 use simple exponential smoothing.
	Season int
	// HalfLife is the EWMA rate half-life in buckets. Default 8.
	HalfLife float64
	// MinHistory is the number of closed buckets required before a
	// template gets a model (its EWMA rate serves as the prediction
	// until then). Default 4.
	MinHistory int
	// EvictBelow is the EWMA rate below which a template old enough to
	// have MinHistory closed buckets is evicted from the table.
	// Default 1/64.
	EvictBelow float64
	// Logf, when non-nil, receives one line per actuation decision.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Bucket <= 0 {
		o.Bucket = time.Second
	}
	if o.Horizon <= 0 {
		o.Horizon = 1
	}
	if o.MaxTemplates <= 0 {
		o.MaxTemplates = 512
	}
	if o.HalfLife <= 0 {
		o.HalfLife = 8
	}
	if o.MinHistory <= 0 {
		o.MinHistory = 4
	}
	if o.EvictBelow <= 0 {
		o.EvictBelow = 1.0 / 64
	}
	return o
}

// template is one tracked workload template. cur is the open bucket's
// arrival counter (lock-free); everything else belongs to the control
// loop and is guarded by Engine.mu.
type template struct {
	key string
	cur atomic.Int64

	rate  float64 // EWMA arrivals per bucket
	hist  []float64
	seen  int // closed buckets since registration
	model forecast.Model
	pred  []float64 // last forecast for buckets +1..+Horizon, nil if none
}

// Engine is the self-forecasting engine. Create with New, feed with
// ObserveTemplate, advance with Tick (or Start a production ticker).
type Engine struct {
	opts Options
	met  Metrics

	templates sync.Map // template key -> *template

	mu   sync.Mutex
	list []*template // registration order; iteration domain for Tick
	acts []Actuator

	aggHist  []float64
	aggRate  float64
	aggSeen  int
	aggModel forecast.Model
	aggPred  []float64
	lastObs  int64 // Observed at the previous rollover
	bucket   int64 // closed buckets so far

	stop chan struct{}
	done chan struct{}
}

// New returns an engine with no attached actuators.
func New(opts Options) *Engine {
	return &Engine{opts: opts.withDefaults()}
}

// Attach adds actuators to run after each Tick, in order. Actuators run
// on the control-loop goroutine only, outside the engine mutex.
func (e *Engine) Attach(acts ...Actuator) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.acts = append(e.acts, acts...)
}

// Metrics returns the engine's live counters.
func (e *Engine) Metrics() *Metrics { return &e.met }

// Bucket returns the configured bucket width.
func (e *Engine) Bucket() time.Duration { return e.opts.Bucket }

// ObserveTemplate records one arrival of the given normalized query
// template into the open bucket. It is safe for concurrent use and is
// lock-free for templates already in the table; it satisfies the
// one-method telemetry interfaces of both serving tiers.
func (e *Engine) ObserveTemplate(key string) {
	e.met.Observed.Add(1)
	if v, ok := e.templates.Load(key); ok {
		v.(*template).cur.Add(1)
		return
	}
	e.register(key)
}

// register is the slow path for a template's first arrival.
func (e *Engine) register(key string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if v, ok := e.templates.Load(key); ok { // raced with another register
		v.(*template).cur.Add(1)
		return
	}
	if len(e.list) >= e.opts.MaxTemplates {
		// Replace the coldest template only if it has genuinely gone
		// cold; otherwise the newcomer is dropped (its arrival still
		// counts in the aggregate).
		victim := -1
		for i, t := range e.list {
			if victim < 0 || t.rate < e.list[victim].rate ||
				(t.rate == e.list[victim].rate && t.key < e.list[victim].key) {
				victim = i
			}
		}
		if victim < 0 || e.list[victim].rate >= 1 {
			e.met.Dropped.Add(1)
			return
		}
		e.templates.Delete(e.list[victim].key)
		e.list = append(e.list[:victim], e.list[victim+1:]...)
		e.met.Evicted.Add(1)
	}
	t := &template{key: key}
	t.cur.Store(1)
	e.templates.Store(key, t)
	e.list = append(e.list, t)
	e.met.Templates.Store(int64(len(e.list)))
}

// window bounds the per-template (and aggregate) bucket history the models
// are fitted on.
const window = 128

// Tick closes the current bucket, updates rates and histories, re-fits
// the per-template and aggregate models, classifies spikes and troughs,
// and runs the attached actuators with the resulting Prediction (which
// it also returns). Tick is synchronous and deterministic given the
// observation sequence; tests call it directly as a fake clock.
func (e *Engine) Tick() Prediction {
	e.mu.Lock()
	e.bucket++
	e.met.Buckets.Add(1)
	alpha := 1 - math.Pow(0.5, 1/e.opts.HalfLife)

	// Aggregate QPS stream: delta of the global observation counter.
	obs := e.met.Observed.Load()
	aggCount := float64(obs - e.lastObs)
	e.lastObs = obs
	if e.aggSeen == 0 {
		e.aggRate = aggCount
	} else {
		e.aggRate += alpha * (aggCount - e.aggRate)
	}
	e.aggSeen++
	e.aggHist = appendBounded(e.aggHist, aggCount, window)
	e.aggModel, e.aggPred = e.refit(e.aggModel, e.aggHist, e.aggSeen)

	// Per-template rollover, decay eviction, and re-fit.
	keep := e.list[:0]
	for _, t := range e.list {
		c := float64(t.cur.Swap(0))
		if t.seen == 0 {
			t.rate = c
		} else {
			t.rate += alpha * (c - t.rate)
		}
		t.seen++
		t.hist = appendBounded(t.hist, c, window)
		if t.seen >= e.opts.MinHistory && t.rate < e.opts.EvictBelow {
			e.templates.Delete(t.key)
			e.met.Evicted.Add(1)
			continue
		}
		t.model, t.pred = e.refit(t.model, t.hist, t.seen)
		keep = append(keep, t)
	}
	for i := len(keep); i < len(e.list); i++ {
		e.list[i] = nil
	}
	e.list = keep
	e.met.Templates.Store(int64(len(e.list)))

	p := e.classifyLocked()
	acts := e.acts
	e.mu.Unlock()

	if p.Trough {
		e.met.Troughs.Add(1)
	}
	for _, tf := range p.Templates {
		if tf.Spike {
			e.met.Spikes.Add(1)
		}
	}
	for _, a := range acts {
		a.Act(p, &e.met)
	}
	return p
}

// refit re-estimates one model over hist, warm-started from the previous
// fit when the model family is unchanged. On fit failure the previous
// model is kept and the prediction is nil (callers fall back to the EWMA
// rate).
func (e *Engine) refit(prev forecast.Model, hist []float64, seen int) (forecast.Model, []float64) {
	if seen < e.opts.MinHistory || len(hist) < 2 {
		return prev, nil
	}
	period := 1
	if e.opts.Season > 1 && len(hist) >= 2*e.opts.Season {
		period = e.opts.Season
	}
	var m forecast.Model
	if period > 1 {
		m = forecast.NewHoltWinters(period, forecast.Additive)
	} else {
		m = forecast.NewSES()
	}
	if prev != nil && prev.Fitted() && prev.Name() == m.Name() {
		if pw, ok := prev.(forecast.WarmStarter); ok {
			if mw, ok := m.(forecast.WarmStarter); ok {
				mw.WarmStart(pw.Params())
			}
		}
	}
	e.met.Refits.Add(1)
	if err := m.Fit(timeseries.New(hist, period)); err != nil {
		e.met.FitErrors.Add(1)
		return prev, nil
	}
	pred := make([]float64, e.opts.Horizon)
	m.Forecast(pred)
	for i := range pred {
		if math.IsNaN(pred[i]) || pred[i] < 0 {
			pred[i] = 0
		}
	}
	return m, pred
}

// Classification thresholds (DESIGN §13). A template spikes when its
// next-bucket forecast is at least spikeFactor times its current EWMA rate
// and at least minSpikeRate arrivals; a trough is predicted when the
// aggregate next-bucket forecast is at most troughFactor times the
// aggregate EWMA rate.
const (
	spikeFactor  = 2
	minSpikeRate = 1
	troughFactor = 0.5
)

// classifyLocked builds the Prediction snapshot. Caller holds e.mu.
func (e *Engine) classifyLocked() Prediction {
	p := Prediction{
		Bucket:  e.bucket,
		AggRate: e.aggRate,
	}
	p.AggPredicted = e.aggRate
	if len(e.aggPred) > 0 {
		p.AggPredicted = e.aggPred[0]
	}
	p.Trough = p.AggPredicted <= troughFactor*p.AggRate
	p.Templates = make([]TemplateForecast, 0, len(e.list))
	for _, t := range e.list {
		tf := TemplateForecast{Key: t.key, Rate: t.rate, Predicted: t.rate}
		if len(t.pred) > 0 {
			tf.Predicted = t.pred[0]
		}
		tf.Spike = len(t.pred) > 0 &&
			tf.Predicted >= minSpikeRate &&
			tf.Predicted >= spikeFactor*math.Max(t.rate, 1e-9)
		if math.Max(tf.Predicted, tf.Rate) >= 1 {
			p.WorkingSet++
		}
		p.Templates = append(p.Templates, tf)
	}
	sort.Slice(p.Templates, func(i, j int) bool {
		a, b := p.Templates[i], p.Templates[j]
		if a.Predicted != b.Predicted {
			return a.Predicted > b.Predicted
		}
		return a.Key < b.Key
	})
	return p
}

// Start launches the production control loop: one Tick per bucket width.
// It is a no-op if the loop is already running.
func (e *Engine) Start() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stop != nil {
		return
	}
	e.stop = make(chan struct{})
	e.done = make(chan struct{})
	go e.run(e.stop, e.done)
}

func (e *Engine) run(stop, done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(e.opts.Bucket)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			e.Tick()
		}
	}
}

// Stop halts the control loop started by Start and waits for the
// in-flight Tick, if any, to finish. No-op when not running.
func (e *Engine) Stop() {
	e.mu.Lock()
	stop, done := e.stop, e.done
	e.stop, e.done = nil, nil
	e.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// appendBounded appends x to h keeping at most w trailing elements,
// shifting in place so the backing array is reused.
func appendBounded(h []float64, x float64, w int) []float64 {
	h = append(h, x)
	if len(h) > w {
		copy(h, h[len(h)-w:])
		h = h[:w]
	}
	return h
}
