// Actuators turn workload predictions into actions. They run on the
// control-loop goroutine only (one Act per Tick, sequential, never
// concurrently with each other), outside any engine lock, so they may
// call back into the serving tier freely.
package sibyl

import "math"

// TemplateForecast is the per-template slice of a Prediction.
type TemplateForecast struct {
	// Key is the normalized query template (f2db.NormalizeSQL output,
	// which is itself executable SQL).
	Key string
	// Rate is the template's EWMA arrival rate per bucket.
	Rate float64
	// Predicted is the model's next-bucket point forecast (the EWMA rate
	// until the template has a fitted model).
	Predicted float64
	// Spike reports that Predicted crossed the spike thresholds.
	Spike bool
}

// Prediction is the outcome of one Tick: the closed-bucket index, the
// per-template forecasts (sorted by Predicted descending, key ascending —
// deterministic given the observation sequence), the aggregate stream,
// and the derived classifications.
type Prediction struct {
	Bucket    int64
	Templates []TemplateForecast
	// AggRate and AggPredicted are the aggregate arrivals-per-bucket EWMA
	// and next-bucket forecast.
	AggRate      float64
	AggPredicted float64
	// Trough reports that the aggregate forecast fell below the trough
	// threshold — idle capacity is predicted for the next bucket.
	Trough bool
	// WorkingSet is the number of templates expected to stay active
	// (predicted or current rate of at least one arrival per bucket);
	// cache sizers scale from it.
	WorkingSet int
}

// Actuator consumes one Prediction per tick. Implementations record
// their outcomes in the shared Metrics.
type Actuator interface {
	Act(p Prediction, m *Metrics)
}

// Prewarm re-executes the templates predicted to spike so their plans
// and forecasts are resident before the traffic arrives. Because the
// warm-up runs the real query path, it performs exactly the work the
// first real query of the spike would have performed — it moves latency,
// it cannot change results.
type Prewarm struct {
	// Run executes one normalized statement (e.g. db.Query or co.Query
	// adapted to drop the result).
	Run func(sql string) error
}

// The actuators' fixed tuning (DESIGN §13): Prewarm runs at most
// prewarmBudget statements per bucket; TroughWork runs at most once per
// troughGap buckets; CacheSizer over-provisions by sizerSlack and skips a
// resize within a relative dead band of sizerHysteresis.
const (
	prewarmBudget   = 16
	troughGap       = 8
	sizerSlack      = 1.25
	sizerHysteresis = 0.25
)

// Act runs the spike templates, hottest predicted first.
func (pw *Prewarm) Act(p Prediction, m *Metrics) {
	if pw.Run == nil {
		return
	}
	budget := prewarmBudget
	for _, tf := range p.Templates {
		if !tf.Spike {
			continue
		}
		if budget == 0 {
			break
		}
		budget--
		if err := pw.Run(tf.Key); err != nil {
			m.PrewarmErrors.Add(1)
		} else {
			m.Prewarms.Add(1)
		}
	}
}

// TroughWork schedules deferred maintenance (eager re-estimation,
// segment compaction, checkpoints) into predicted idle buckets, with a
// bucket-count hysteresis so a long trough does not re-run the work
// every tick.
type TroughWork struct {
	// Run performs the maintenance. It is called at most once per
	// troughGap buckets, and only on ticks whose Prediction says Trough.
	Run func()

	ran  bool
	last int64
}

// Act runs the maintenance if a trough is predicted and the gap has
// passed.
func (tw *TroughWork) Act(p Prediction, m *Metrics) {
	if tw.Run == nil || !p.Trough {
		return
	}
	if tw.ran && p.Bucket-tw.last < troughGap {
		m.TroughSkips.Add(1)
		return
	}
	tw.ran, tw.last = true, p.Bucket
	tw.Run()
	m.TroughRuns.Add(1)
}

// CacheSizer resizes one cache from the predicted working-set size:
// target = WorkingSet · PerTemplate · sizerSlack, clamped to [Min, Max].
// A relative hysteresis band suppresses resizes that would churn the
// cache for marginal gains.
type CacheSizer struct {
	// Apply resizes the cache (e.g. DB.SetPlanCacheCapacity).
	Apply func(entries int)
	// Min and Max clamp the target; Min also guards cold start (a zero
	// working set never shrinks the cache below Min). Zero values mean
	// 1 and no upper clamp respectively.
	Min, Max int
	// PerTemplate is the entries each active template is expected to
	// occupy (1 for plan-style caches, the typical distinct-forecast
	// fanout for the memo). Default 1.
	PerTemplate int
	// Current must be initialized to the cache's starting capacity; the
	// sizer tracks its own applied values afterwards.
	Current int
}

// Act computes the clamped target and applies it outside the dead band.
func (cs *CacheSizer) Act(p Prediction, m *Metrics) {
	if cs.Apply == nil {
		return
	}
	per := cs.PerTemplate
	if per <= 0 {
		per = 1
	}
	target := int(float64(p.WorkingSet) * float64(per) * sizerSlack)
	min := cs.Min
	if min <= 0 {
		min = 1
	}
	if target < min {
		target = min
	}
	if cs.Max > 0 && target > cs.Max {
		target = cs.Max
	}
	if cs.Current > 0 && math.Abs(float64(target-cs.Current)) <= sizerHysteresis*float64(cs.Current) {
		m.ResizeSkips.Add(1)
		return
	}
	cs.Current = target
	cs.Apply(target)
	m.Resizes.Add(1)
}
