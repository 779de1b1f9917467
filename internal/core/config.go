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
	// Schemes holds, by node ID, the derivation scheme answering the
	// node's forecast queries; a node without one holds the zero Scheme,
	// whose Sources are nil. Scheme sources always carry models. Write
	// through SetScheme, which keeps the count NumSchemes reports.
	Schemes []derivation.Scheme
	// Errors holds, by node ID, the SMAPE of the node's scheme on the
	// evaluation part of its series; it means nothing where there is none.
	Errors []float64
	// TrainLen is the number of observations used for model training;
	// the remainder of each series is the evaluation part.
	TrainLen int
	// CostSeconds is the total model creation time (the paper's
	// worst-case approximation of model maintenance costs, Section II-D).
	CostSeconds float64
	// ModelSeconds records the creation time per model.
	ModelSeconds map[int]float64

	schemes int // nodes holding a scheme
}

// NewConfiguration returns an empty configuration for the graph with the
// given training length.
func NewConfiguration(g *cube.Graph, trainLen int) *Configuration {
	return &Configuration{
		Graph:        g,
		Models:       make(map[int]forecast.Model),
		Schemes:      make([]derivation.Scheme, g.NumNodes()),
		Errors:       make([]float64, g.NumNodes()),
		TrainLen:     trainLen,
		ModelSeconds: make(map[int]float64),
	}
}

// NumModels returns the number of models in the configuration.
func (c *Configuration) NumModels() int { return len(c.Models) }

// NumSchemes returns the number of nodes holding a scheme.
func (c *Configuration) NumSchemes() int { return c.schemes }

// Scheme returns the node's scheme and whether it has one; an ID outside
// the graph has none.
func (c *Configuration) Scheme(id int) (derivation.Scheme, bool) {
	if id < 0 || id >= len(c.Schemes) || c.Schemes[id].Sources == nil {
		return derivation.Scheme{}, false
	}
	return c.Schemes[id], true
}

// SetScheme assigns sc and its error e to node sc.Target. A scheme with nil
// Sources takes the node's scheme away.
func (c *Configuration) SetScheme(sc derivation.Scheme, e float64) {
	t := sc.Target
	if c.Schemes[t].Sources != nil {
		c.schemes--
	}
	if sc.Sources != nil {
		c.schemes++
	}
	c.Schemes[t], c.Errors[t] = sc, e
}

// NodeError returns the node's error: the worst SMAPE of 1 where it has no
// scheme.
func (c *Configuration) NodeError(id int) float64 {
	if c.Schemes[id].Sources == nil {
		return 1
	}
	return c.Errors[id]
}

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
		acc += c.NodeError(id)
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
	if sc, ok := c.Scheme(id); ok {
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
	c.SetScheme(sc, c.Errors[id])
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
// scheme source has a model, every node with a model has a scheme, every
// scheme's error is within [0, 1] and NumSchemes counts the schemes.
func (c *Configuration) Validate() error {
	schemes := 0
	for id, sc := range c.Schemes {
		if sc.Sources == nil {
			continue
		}
		schemes++
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
		if e := c.Errors[id]; math.IsNaN(e) || e < 0 || e > 1 {
			return fmt.Errorf("core: node %d has out-of-range error %v", id, e)
		}
	}
	if schemes != c.schemes {
		return fmt.Errorf("core: %d nodes hold a scheme, %d counted: write schemes through SetScheme", schemes, c.schemes)
	}
	for id := range c.Models {
		if _, ok := c.Scheme(id); !ok {
			return fmt.Errorf("core: node %d has a model but no scheme", id)
		}
	}
	return nil
}
