// Package core implements the paper's primary contribution: the model
// configuration advisor (Sections III and IV). Given a time-series hyper
// graph it iteratively selects a model configuration — an assignment of
// forecast models to nodes plus a derivation scheme for every node — that
// minimizes the overall forecast error while keeping model costs low.
package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"cubefc/internal/cube"
	"cubefc/internal/derivation"
	"cubefc/internal/forecast"
	"cubefc/internal/timeseries"
)

// Configuration is an assignment of forecast models and derivation schemes
// to the nodes of a time-series hyper graph (Section II-C: "we call an
// assignment of models and derivation schemes to nodes a model
// configuration").
type Configuration struct {
	Graph *cube.Graph
	// Models maps node ID to the fitted forecast model at that node.
	Models map[int]forecast.Model
	// Schemes maps every node ID to the derivation scheme answering its
	// forecast queries. Scheme sources always carry models.
	Schemes map[int]derivation.Scheme
	// Errors caches the per-node SMAPE of the assigned scheme on the
	// evaluation part of the series.
	Errors map[int]float64
	// TrainLen is the number of observations used for model training;
	// the remainder of each series is the evaluation part.
	TrainLen int
	// CostSeconds is the total model creation time (the paper's
	// worst-case approximation of model maintenance costs, Section II-D).
	CostSeconds float64
	// ModelSeconds records the creation time per model.
	ModelSeconds map[int]float64
}

// NewConfiguration returns an empty configuration for the graph with the
// given training length.
func NewConfiguration(g *cube.Graph, trainLen int) *Configuration {
	return &Configuration{
		Graph:        g,
		Models:       make(map[int]forecast.Model),
		Schemes:      make(map[int]derivation.Scheme),
		Errors:       make(map[int]float64),
		TrainLen:     trainLen,
		ModelSeconds: make(map[int]float64),
	}
}

// NumModels returns the number of models in the configuration.
func (c *Configuration) NumModels() int { return len(c.Models) }

// Error returns the overall configuration error: the mean SMAPE over all
// nodes of the graph (Section II-D combines single-node errors into one
// quality measure). Nodes without an assigned scheme count with the worst
// possible SMAPE of 1.
func (c *Configuration) Error() float64 {
	n := c.Graph.NumNodes()
	if n == 0 {
		return 0
	}
	var acc float64
	for id := 0; id < n; id++ {
		if e, ok := c.Errors[id]; ok {
			acc += e
		} else {
			acc += 1
		}
	}
	return acc / float64(n)
}

// TestLen returns the evaluation horizon.
func (c *Configuration) TestLen() int { return c.Graph.Length - c.TrainLen }

// TrainLen returns how many leading observations of a series of the given
// length models are trained on (trainRatio of it, Section VI-A); the rest is
// the evaluation part, never empty. The advisor and every baseline split
// through it, so Figure 7 compares them on the same evaluation part.
func TrainLen(length int) int {
	tl := int(math.Round(trainRatio * float64(length)))
	if tl >= length {
		tl = length - 1
	}
	return tl
}

// FitModelOn fits a fresh model from factory on the training series s and
// returns it together with the measured creation time. extraDelay is added
// to simulate more expensive model types (used by the Fig. 8c experiment,
// which "artificially var[ies] the time that is required to create a single
// forecast model").
func (c *Configuration) FitModelOn(factory forecast.Factory, s *timeseries.Series, extraDelay time.Duration) (forecast.Model, time.Duration, error) {
	start := time.Now()
	if extraDelay > 0 {
		time.Sleep(extraDelay)
	}
	m := factory(c.Graph.Period)
	if err := m.Fit(s); err != nil {
		return nil, time.Since(start), fmt.Errorf("core: fitting %s: %w", m.Name(), err)
	}
	return m, time.Since(start), nil
}

// fallbackFamilies are the simpler families a fit degrades through when the
// training series is too short for the requested one: Holt → SES → Naive.
var fallbackFamilies = []forecast.Factory{
	func(int) forecast.Model { return forecast.NewHolt(false) },
	func(int) forecast.Model { return forecast.NewSES() },
	func(int) forecast.Model { return forecast.NewNaive() },
}

// FitWithFallback is FitModelOn degrading through fallbackFamilies until a
// family fits; the creation time covers every attempt, the delay only the
// first. prepare, when non-nil, sees every model before it is fitted (the
// advisor seeds warm starts through it). The error is the last family's.
func (c *Configuration) FitWithFallback(factory forecast.Factory, s *timeseries.Series, extraDelay time.Duration, prepare func(forecast.Model)) (forecast.Model, time.Duration, error) {
	prepared := func(f forecast.Factory) forecast.Factory {
		if prepare == nil {
			return f
		}
		return func(period int) forecast.Model {
			m := f(period)
			prepare(m)
			return m
		}
	}
	m, total, err := c.FitModelOn(prepared(factory), s, extraDelay)
	for _, fb := range fallbackFamilies {
		if err == nil {
			break
		}
		var d time.Duration
		m, d, err = c.FitModelOn(prepared(fb), s, 0)
		total += d
	}
	return m, total, err
}

// ModelIDs returns the sorted node IDs carrying a model.
func (c *Configuration) ModelIDs() []int {
	ids := make([]int, 0, len(c.Models))
	for id := range c.Models {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// ResolveScheme returns the node's derivation scheme, deriving and
// backfilling one when the node has none: a single-source scheme from the
// first configured model (in sorted model order) that covers the node or is
// covered by it, falling back to the first model. The advisor assigns a
// scheme to every node it can evaluate one for; f2db's Open resolves the
// rest, which only an image saved by an older engine or degenerate data
// leave. Not safe for concurrent use.
func (c *Configuration) ResolveScheme(id int) (derivation.Scheme, error) {
	if sc, ok := c.Schemes[id]; ok {
		return sc, nil
	}
	if id < 0 || id >= c.Graph.NumNodes() {
		return derivation.Scheme{}, fmt.Errorf("core: node %d has no derivation scheme", id)
	}
	ids := c.ModelIDs()
	if len(ids) == 0 {
		return derivation.Scheme{}, fmt.Errorf("core: node %d has no derivation scheme and no models exist", id)
	}
	src := ids[0]
	for _, s := range ids {
		if c.Graph.Covers(s, id) || c.Graph.Covers(id, s) {
			src = s
			break
		}
	}
	sc, err := derivation.NewScheme(c.Graph, id, []int{src}, c.TrainLen)
	if err != nil {
		return derivation.Scheme{}, fmt.Errorf("core: resolving scheme for node %d: %w", id, err)
	}
	c.Schemes[id] = sc
	return sc, nil
}

// Forecast answers a forecast query for the node over horizon h using the
// assigned scheme and the live model states. It is the query-time
// calculation of Section II-C (eq. 1). A scheme-less node resolves one
// (ResolveScheme).
func (c *Configuration) Forecast(nodeID, h int) ([]float64, error) {
	sc, err := c.ResolveScheme(nodeID)
	if err != nil {
		return nil, err
	}
	fcs := make([][]float64, len(sc.Sources))
	for i, s := range sc.Sources {
		m, ok := c.Models[s]
		if !ok {
			return nil, fmt.Errorf("core: scheme source %d of node %d has no model", s, nodeID)
		}
		fcs[i] = make([]float64, h)
		m.Forecast(fcs[i])
	}
	return sc.Apply(fcs)
}

// Validate checks the structural invariants of a configuration: every
// scheme source has a model, every node with a model has a scheme, and all
// cached errors are within [0, 1].
func (c *Configuration) Validate() error {
	for id, sc := range c.Schemes {
		if sc.Target != id {
			return fmt.Errorf("core: scheme stored at node %d targets node %d", id, sc.Target)
		}
		if len(sc.Sources) == 0 {
			return fmt.Errorf("core: scheme of node %d has no sources", id)
		}
		for _, s := range sc.Sources {
			if _, ok := c.Models[s]; !ok {
				return fmt.Errorf("core: scheme of node %d references model-less source %d", id, s)
			}
		}
	}
	for id := range c.Models {
		if _, ok := c.Schemes[id]; !ok {
			return fmt.Errorf("core: node %d has a model but no scheme", id)
		}
	}
	for id, e := range c.Errors {
		if math.IsNaN(e) || e < 0 || e > 1 {
			return fmt.Errorf("core: node %d has out-of-range error %v", id, e)
		}
	}
	return nil
}
