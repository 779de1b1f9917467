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

// SeriesSource provides the history of a node's series: *cube.Graph, which
// materializes a node on first access, or a TrainingSums read from it.
type SeriesSource interface {
	NodeValues(id int) []float64
}

// Scheme derives the forecast of Target from the models at Sources with
// derivation weight K. Sources is read-only: the advisor hands every
// single-source scheme reading one model the same slice.
type Scheme struct {
	Target  int
	Sources []int
	K       float64
	Kind    Kind
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

// sameIDSet reports whether a child edge and a source set hold the same
// IDs with the same multiplicities. Both are a handful of elements, so it
// counts in place.
func sameIDSet(edge []int32, ids []int) bool {
	if len(edge) != len(ids) || len(edge) == 0 {
		return false
	}
	for _, x := range edge {
		if countID(edge, int(x)) != countID(ids, int(x)) {
			return false
		}
	}
	return true
}

func countID[T int | int32](ids []T, x int) int {
	n := 0
	for _, id := range ids {
		if int(id) == x {
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

// TrainingSums is one advisor run's table of every node's series, read with
// Graph.Histories so the run materializes no node, and of each series' sum
// over its first n values, the window of every weight in the run. It is
// never written after NewTrainingSums, so readers need no synchronization.
type TrainingSums struct {
	rows [][]float64
	n    int
	sums []float64
}

// NewTrainingSums reads the table from g.
func NewTrainingSums(g *cube.Graph, n int) *TrainingSums {
	ts := &TrainingSums{g.Histories(), n, make([]float64, g.NumNodes())}
	for id, row := range ts.rows {
		ts.sums[id] = prefixSum(row, n)
	}
	return ts
}

// NodeValues returns the node's series, which must not be written.
func (ts *TrainingSums) NodeValues(id int) []float64 { return ts.rows[id] }

// PrefixSum is the sum of the node's first n values (all of them when n <= 0
// or beyond the series), bit for bit what historySum gives for any source.
func (ts *TrainingSums) PrefixSum(id, n int) float64 {
	if n == ts.n {
		return ts.sums[id]
	}
	return prefixSum(ts.rows[id], n)
}

func historySum(src SeriesSource, id, historyLen int) float64 {
	if ts, ok := src.(*TrainingSums); ok {
		return ts.PrefixSum(id, historyLen)
	}
	return prefixSum(src.NodeValues(id), historyLen)
}

// prefixSum sums vals[:n] in order, or all of vals when n <= 0 or beyond it.
func prefixSum(vals []float64, n int) (acc float64) {
	if n <= 0 || n > len(vals) {
		n = len(vals)
	}
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
	derive(out, sourceForecasts, sc.K)
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
	derive(out, sourceForecasts, sc.K)
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
	return smapeDerived(actual, sourceForecasts, sc.K), nil
}

// derivedAt is step i of the derived series d[i] = k·Σ_s series[s][i], the
// one definition of the derivation arithmetic. Sources are added in order starting from 0,
// and float64(sum*k) is an explicit conversion so that no architecture
// fuses the scaling into whatever the caller does with the value next.
func derivedAt(series [][]float64, i int, k float64) float64 {
	var d float64
	for _, vals := range series {
		d += vals[i]
	}
	return float64(d * k)
}

// derive writes the derived series into out, whose length the caller has
// checked against every series.
func derive(out []float64, series [][]float64, k float64) {
	for i := range out {
		out[i] = derivedAt(series, i, k)
	}
}

// smapeDerived is timeseries.SMAPE of actual against the derived series,
// computed in one pass without materializing it.
func smapeDerived(actual []float64, series [][]float64, k float64) float64 {
	n := len(series[0])
	if len(actual) < n {
		n = len(actual)
	}
	if n == 0 {
		return math.NaN()
	}
	var acc float64
	for i := 0; i < n; i++ {
		d := derivedAt(series, i, k)
		num := math.Abs(actual[i] - d)
		den := math.Abs(actual[i]) + math.Abs(d)
		if den == 0 {
			continue // both zero: perfect forecast for this step
		}
		acc += num / den
	}
	return acc / float64(n)
}

// HistoricalIndicators evaluates the scheme sources → target on history
// alone, over the first historyLen observations (<= 0 or beyond the series:
// all of them), and returns both indicators of Section III-B:
//
//   - histErr, the historical error: the SMAPE of the target's history
//     against the sources' history scaled by Weight, as if the models at the
//     sources were perfect. NaN for an empty history.
//   - stability, the similarity indicator: the coefficient of variation of
//     the per-step weight x_t[i] / Σ x_s[i], 0 for perfectly similar series.
//     Steps whose sources sum to (near) zero are skipped; with fewer than two
//     usable steps, or a zero mean weight, it is +Inf.
//
// The first pass forms each step's source sum once, for both the SMAPE and
// the mean weight; the variance pass recomputes the sum and the weight, so a
// step costs two passes and two divisions. It allocates nothing for up to
// eight sources. The error is Weight's.
func HistoricalIndicators(src SeriesSource, target int, sources []int, historyLen int) (histErr, stability float64, err error) {
	// Without a weight (no sources, or a zero source history) the historical
	// error is NaN; the stability needs none.
	k, err := Weight(src, target, sources, historyLen)
	tv := src.NodeValues(target)
	if historyLen > 0 && historyLen < len(tv) {
		tv = tv[:historyLen]
	}
	if len(sources) == 0 {
		return math.NaN(), math.Inf(1), err
	}
	var buf [8][]float64
	srcVals := buf[:0]
	for _, s := range sources[1:] {
		srcVals = append(srcVals, src.NodeValues(s)[:len(tv)])
	}
	// sum is the step's source sum in derivedAt's order, which starts from 0:
	// that only turns a -0 sum into +0, which no output can tell apart.
	first := src.NodeValues(sources[0])[:len(tv)]
	sum := func(i int) float64 {
		den := first[i]
		for _, sv := range srcVals {
			den += sv[i]
		}
		return den
	}
	var acc, mean float64
	usable := 0
	for i, t := range tv {
		den := sum(i)
		if d := float64(den * k); math.Abs(t)+math.Abs(d) != 0 {
			acc += math.Abs(t-d) / (math.Abs(t) + math.Abs(d))
		}
		if math.Abs(den) < 1e-12 {
			continue
		}
		mean += t / den
		usable++
	}
	histErr = math.NaN()
	if len(tv) > 0 && err == nil {
		histErr = acc / float64(len(tv))
	}
	if mean /= float64(usable); usable < 2 || mean == 0 {
		return histErr, math.Inf(1), err
	}
	var variance float64
	for i, t := range tv {
		den := sum(i)
		if math.Abs(den) < 1e-12 {
			continue
		}
		d := t/den - mean
		variance += d * d
	}
	variance /= float64(usable)
	return histErr, math.Sqrt(variance) / math.Abs(mean), err
}

// DirectScheme returns the trivial scheme of a node deriving from its own
// model (weight 1, Figure 3a).
func DirectScheme(target int) Scheme {
	return Scheme{Target: target, Sources: []int{target}, K: 1, Kind: Direct}
}
