// Package derivation implements the generalized forecast-derivation schemes
// of Section II-C of the paper: the forecast of a target node t is derived
// from any set of source nodes S as
//
//	x̂_t = k_{S→t} · Σ_{s∈S} x̂_s,   k_{S→t} = h_t / Σ_{s∈S} h_s   (eq. 1–3)
//
// where h_v is the sum over the whole history of node v. Direct (S = {t},
// k = 1), aggregation (S = children, k = 1 on complete data) and
// disaggregation (S = {parent}, k = historical share) are special cases.
package derivation

import (
	"fmt"
	"math"
	"sync/atomic"

	"cubefc/internal/cube"
)

// Kind labels the classical scheme shapes for reporting; the math is the
// same generalized weight in every case.
type Kind int

const (
	// Direct uses the model at the target node itself.
	Direct Kind = iota
	// Aggregation sums child-node forecasts.
	Aggregation
	// Disaggregation scales down an ancestor-node forecast.
	Disaggregation
	// General is any other source set (e.g. siblings, multi-source).
	General
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Direct:
		return "direct"
	case Aggregation:
		return "aggregation"
	case Disaggregation:
		return "disaggregation"
	default:
		return "general"
	}
}

// SeriesSource provides the history of a node's series. The exact source
// is *cube.Graph (materializing nodes on first access); the sampling
// estimator of cube.NewSampledSource answers with reservoir-sampled
// estimates instead, which turns every derivation quantity below (weights,
// historical errors, stability) into its sampled counterpart without
// touching the formulas. There is one function per quantity: exact is the
// source that never samples.
type SeriesSource interface {
	NodeValues(id int) []float64
}

// Scheme derives the forecast of Target from the models at Sources with
// derivation weight K. When Weights is non-nil (sampled derivation,
// len(Weights) == len(Sources)), each source forecast is scaled by its own
// weight instead and K is informational only. Sources is read-only: the
// advisor hands every single-source scheme reading one model the same slice.
type Scheme struct {
	Target  int
	Sources []int
	K       float64
	Kind    Kind
	// Weights holds per-source multipliers for sampled schemes: the
	// Horvitz–Thompson inflation of each sampled source times the
	// derivation weight. Nil for exact schemes.
	Weights []float64
}

// NewScheme builds a scheme for target derived from sources over the first
// historyLen observations of the node series (pass the training length to
// avoid leaking evaluation data into the weight). It classifies the scheme
// kind from the graph structure.
func NewScheme(g *cube.Graph, target int, sources []int, historyLen int) (Scheme, error) {
	k, err := Weight(g, target, sources, historyLen)
	if err != nil {
		return Scheme{}, err
	}
	return Scheme{Target: target, Sources: append([]int(nil), sources...), K: k, Kind: Classify(g, target, sources)}, nil
}

// Classify determines the classical kind of a source set for a target. It
// reads the graph's skeleton only: classifying a scheme materializes no
// aggregate.
func Classify(g *cube.Graph, target int, sources []int) Kind {
	if len(sources) == 1 {
		s := sources[0]
		if s == target {
			return Direct
		}
		if g.Covers(s, target) {
			return Disaggregation
		}
	}
	// Aggregation: sources exactly one child hyper edge of target.
	for d := range g.Dims {
		if sameIDSet(g.ChildrenAlong(target, d), sources) {
			return Aggregation
		}
	}
	return General
}

// sameIDSet reports whether a and b hold the same IDs with the same
// multiplicities. Both are a handful of elements, so it counts in place.
func sameIDSet(a, b []int) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	for _, x := range a {
		if countID(a, x) != countID(b, x) {
			return false
		}
	}
	return true
}

func countID(ids []int, x int) int {
	n := 0
	for _, id := range ids {
		if id == x {
			n++
		}
	}
	return n
}

// Weight computes k_{S→t} = h_t / Σ h_s over the first historyLen
// observations (eq. 2 and 3). A historyLen <= 0 or beyond the series length
// uses the whole history.
func Weight(src SeriesSource, target int, sources []int, historyLen int) (float64, error) {
	if len(sources) == 0 {
		return 0, fmt.Errorf("derivation: empty source set for target %d", target)
	}
	ht := historySum(src, target, historyLen)
	var hs float64
	for _, s := range sources {
		hs += historySum(src, s, historyLen)
	}
	if hs == 0 {
		return 0, fmt.Errorf("derivation: zero source history sum for target %d", target)
	}
	return ht / hs, nil
}

// TrainingSums is src with a lazily filled table of every node's sum over
// its first n values, the window of every weight in one advisor run, so each
// node is summed once per run. Fills are atomic (two racing readers store the
// same bits); other lengths are summed afresh.
type TrainingSums struct {
	SeriesSource
	n      int
	sums   []atomic.Uint64 // math.Float64bits of the filled sums
	filled []atomic.Uint32 // bit id%32 of word id/32: sums[id] is filled
}

// NewTrainingSums returns an empty table over the nodes 0..nodes-1 of src.
func NewTrainingSums(src SeriesSource, n, nodes int) *TrainingSums {
	return &TrainingSums{src, n, make([]atomic.Uint64, nodes), make([]atomic.Uint32, (nodes+31)/32)}
}

// PrefixSum is the sum of the node's first n values (all of them when n <= 0
// or beyond the series), bit for bit what historySum gives for any source.
func (ts *TrainingSums) PrefixSum(id, n int) float64 {
	word, bit := &ts.filled[id/32], uint32(1)<<(id%32)
	if n == ts.n && word.Load()&bit != 0 {
		return math.Float64frombits(ts.sums[id].Load())
	}
	s := historySum(ts.SeriesSource, id, n)
	if n == ts.n {
		ts.sums[id].Store(math.Float64bits(s))
		for w := word.Load(); !word.CompareAndSwap(w, w|bit); w = word.Load() {
		}
	}
	return s
}

func historySum(src SeriesSource, id, historyLen int) float64 {
	if ts, ok := src.(*TrainingSums); ok {
		return ts.PrefixSum(id, historyLen)
	}
	vals := src.NodeValues(id)
	n := len(vals)
	if historyLen > 0 && historyLen < n {
		n = historyLen
	}
	var acc float64
	for _, v := range vals[:n] {
		acc += v
	}
	return acc
}

// horizon validates the per-source forecasts against the scheme and returns
// their common length.
func (sc *Scheme) horizon(sourceForecasts [][]float64) (int, error) {
	if len(sourceForecasts) != len(sc.Sources) {
		return 0, fmt.Errorf("derivation: got %d forecasts for %d sources", len(sourceForecasts), len(sc.Sources))
	}
	if len(sourceForecasts) == 0 {
		return 0, fmt.Errorf("derivation: no source forecasts")
	}
	if sc.Weights != nil && len(sc.Weights) != len(sc.Sources) {
		return 0, fmt.Errorf("derivation: got %d weights for %d sources", len(sc.Weights), len(sc.Sources))
	}
	h := len(sourceForecasts[0])
	for i, fc := range sourceForecasts {
		if len(fc) != h {
			return 0, fmt.Errorf("derivation: forecast %d has length %d, want %d", i, len(fc), h)
		}
	}
	return h, nil
}

// Apply combines source forecasts into the target forecast: element-wise
// sum scaled by K. All forecasts must have equal length.
func (sc *Scheme) Apply(sourceForecasts [][]float64) ([]float64, error) {
	h, err := sc.horizon(sourceForecasts)
	if err != nil {
		return nil, err
	}
	out := make([]float64, h)
	derive(out, sourceForecasts, sc.K, sc.Weights)
	return out, nil
}

// ApplyTo is Apply into a caller-supplied slice of the forecasts' common
// length. out may be one of the source forecasts: every step reads all of
// its sources before it is written.
func (sc *Scheme) ApplyTo(out []float64, sourceForecasts [][]float64) error {
	h, err := sc.horizon(sourceForecasts)
	if err != nil {
		return err
	}
	if len(out) != h {
		return fmt.Errorf("derivation: output has length %d, want %d", len(out), h)
	}
	derive(out, sourceForecasts, sc.K, sc.Weights)
	return nil
}

// SMAPE returns timeseries.SMAPE(actual, forecast) for the forecast Apply
// would derive from sourceForecasts, bit for bit, without materializing it.
// It is the one definition of a scheme's error against actuals: the advisor
// evaluates tens of thousands of candidate schemes per run through it and
// keeps only the few that win.
func (sc *Scheme) SMAPE(actual []float64, sourceForecasts [][]float64) (float64, error) {
	if _, err := sc.horizon(sourceForecasts); err != nil {
		return math.NaN(), err
	}
	return smapeDerived(actual, sourceForecasts, sc.K, sc.Weights), nil
}

// derivedAt is step i of the derived series d[i] = k·Σ_s series[s][i] (or
// Σ_s weights[s]·series[s][i] when weights is non-nil) — the one definition
// of the derivation arithmetic. Sources are added in order starting from 0,
// and float64(sum*k) is an explicit conversion so that no architecture
// fuses the scaling into whatever the caller does with the value next.
func derivedAt(series [][]float64, i int, k float64, weights []float64) float64 {
	var d float64
	if weights != nil {
		for s, vals := range series {
			d += weights[s] * vals[i]
		}
		return d
	}
	for _, vals := range series {
		d += vals[i]
	}
	return float64(d * k)
}

// derive writes the derived series into out, whose length the caller has
// checked against every series.
func derive(out []float64, series [][]float64, k float64, weights []float64) {
	for i := range out {
		out[i] = derivedAt(series, i, k, weights)
	}
}

// smapeDerived is timeseries.SMAPE of actual against the derived series,
// computed in one pass without materializing it.
func smapeDerived(actual []float64, series [][]float64, k float64, weights []float64) float64 {
	n := len(series[0])
	if len(actual) < n {
		n = len(actual)
	}
	if n == 0 {
		return math.NaN()
	}
	var acc float64
	for i := 0; i < n; i++ {
		d := derivedAt(series, i, k, weights)
		num := math.Abs(actual[i] - d)
		den := math.Abs(actual[i]) + math.Abs(d)
		if den == 0 {
			continue // both zero: perfect forecast for this step
		}
		acc += num / den
	}
	return acc / float64(n)
}

// histories appends the history of every source to buf. Callers pass a
// stack-backed buffer that covers the usual one to eight sources; larger
// source sets spill to the heap.
func histories(src SeriesSource, sources []int, buf [][]float64) [][]float64 {
	for _, s := range sources {
		buf = append(buf, src.NodeValues(s))
	}
	return buf
}

// HistoricalError evaluates the derivation accuracy of the scheme sources→
// target on history alone, assuming a perfect model at the sources: the
// real source history (scaled by the weight) is used as the forecast of the
// target and compared against the target's real history with SMAPE. This is
// the "historical error" indicator of Section III-B. The error is computed
// over the first historyLen observations (<= 0 means all).
func HistoricalError(src SeriesSource, target int, sources []int, historyLen int) (float64, error) {
	k, err := Weight(src, target, sources, historyLen)
	if err != nil {
		return math.NaN(), err
	}
	tv := src.NodeValues(target)
	n := len(tv)
	if historyLen > 0 && historyLen < n {
		n = historyLen
	}
	var buf [8][]float64
	srcVals := histories(src, sources, buf[:0])
	for i, sv := range srcVals {
		srcVals[i] = sv[:n]
	}
	return smapeDerived(tv[:n], srcVals, k, nil), nil
}

// WeightStability measures the similarity indicator of Section III-B: the
// fluctuation of the per-step derivation weight w_i = x_t[i] / Σ x_s[i]
// over the history, reported as the coefficient of variation (std/|mean|).
// Constant weights (perfectly similar series) yield 0; strongly fluctuating
// weights yield large values. Steps with a (near-)zero source sum are
// skipped; if fewer than two usable steps remain the stability is +Inf.
func WeightStability(src SeriesSource, target int, sources []int, historyLen int) float64 {
	tv := src.NodeValues(target)
	n := len(tv)
	if historyLen > 0 && historyLen < n {
		n = historyLen
	}
	var buf [8][]float64
	srcVals := histories(src, sources, buf[:0])
	// ratio returns the per-step weight x_t[i] / Σ x_s[i]; both passes below
	// recompute it rather than keep n of them.
	ratio := func(i int) (float64, bool) {
		var den float64
		for _, sv := range srcVals {
			den += sv[i]
		}
		if math.Abs(den) < 1e-12 {
			return 0, false
		}
		return tv[i] / den, true
	}
	var mean float64
	usable := 0
	for i := 0; i < n; i++ {
		if r, ok := ratio(i); ok {
			mean += r
			usable++
		}
	}
	if usable < 2 {
		return math.Inf(1)
	}
	mean /= float64(usable)
	var variance float64
	for i := 0; i < n; i++ {
		if r, ok := ratio(i); ok {
			d := r - mean
			variance += d * d
		}
	}
	variance /= float64(usable)
	if mean == 0 {
		return math.Inf(1)
	}
	return math.Sqrt(variance) / math.Abs(mean)
}

// DirectScheme returns the trivial scheme of a node deriving from its own
// model (weight 1, Figure 3a).
func DirectScheme(target int) Scheme {
	return Scheme{Target: target, Sources: []int{target}, K: 1, Kind: Direct}
}
