// Package cubefc reproduces "Forecasting the Data Cube: A Model
// Configuration Advisor for Multi-Dimensional Data Sets" (Fischer, Schildt,
// Hartmann, Lehner; ICDE 2013): forecasting the time series of a
// multi-dimensional data cube with an automatically selected configuration
// of forecast models.
//
// The typical flow is:
//
//	graph, _ := cubefc.NewGraph(dims, base)         // hyper graph (§II-A)
//	cfg, _   := cubefc.Advise(graph, cubefc.AdvisorOptions{}) // advisor (§III/IV)
//	db, _    := cubefc.OpenDB(graph, cfg, cubefc.DBOptions{}) // F²DB (§V)
//	res, _   := db.Query("SELECT time, SUM(m) FROM facts WHERE region = 'R2' GROUP BY time AS OF now() + '1 day'")
//
// This package is a thin facade over the implementation packages under
// internal/: cube (data model and hyper graph), core (the advisor),
// forecast (exponential smoothing and other models), derivation
// (generalized derivation schemes), hierarchical (the baseline approaches
// of §VI-B) and f2db (the embedded forecast-query engine).
package cubefc

import (
	"io"

	"cubefc/internal/core"
	"cubefc/internal/csvload"
	"cubefc/internal/cube"
	"cubefc/internal/f2db"
	"cubefc/internal/forecast"
	"cubefc/internal/hierarchical"
	"cubefc/internal/timeseries"
)

// Re-exported core types. The aliases expose the stable public API; the
// internal packages remain importable inside this module for advanced use.
type (
	// Series is an equidistant time series with a seasonal period.
	Series = timeseries.Series
	// Dimension is a categorical dimension with an optional
	// functional-dependency hierarchy (e.g. city → region).
	Dimension = cube.Dimension
	// BaseSeries identifies one finest-granularity time series.
	BaseSeries = cube.BaseSeries
	// Graph is the time-series hyper graph of all aggregation
	// possibilities.
	Graph = cube.Graph
	// Node is a vertex of the hyper graph (base or aggregated series).
	Node = cube.Node
	// Coord addresses a node: one (level, member) cell per dimension.
	Coord = cube.Coord
	// Cell is one coordinate component.
	Cell = cube.Cell
	// Configuration is an assignment of models and derivation schemes.
	Configuration = core.Configuration
	// AdvisorOptions parameterizes the model configuration advisor.
	AdvisorOptions = core.Options
	// Snapshot reports advisor progress after each iteration.
	Snapshot = core.Snapshot
	// Advisor exposes stepwise (anytime) advisor execution.
	Advisor = core.Advisor
	// Model is a forecast model (exponential smoothing, Theta, ...).
	Model = forecast.Model
	// DB is the embedded F²DB forecast-query engine.
	DB = f2db.DB
	// DBOptions configures OpenDB.
	DBOptions = f2db.Options
	// QueryResult is the output of DB.Query.
	QueryResult = f2db.Result
	// BaselineOptions parameterizes the hierarchical baselines.
	BaselineOptions = hierarchical.Options
)

// NewSeries wraps values (not copied) into a Series with the seasonal
// period.
func NewSeries(values []float64, period int) *Series {
	return timeseries.New(values, period)
}

// NewDimension returns a flat categorical dimension.
func NewDimension(name, level string) Dimension {
	return cube.NewDimension(name, level)
}

// NewHierarchy returns a dimension with functional-dependency levels
// (finest first) and parent maps between consecutive levels.
func NewHierarchy(name string, levels []string, parents []map[string]string) (Dimension, error) {
	return cube.NewHierarchy(name, levels, parents)
}

// NewGraph builds the complete time-series hyper graph over the base
// series: every SUM aggregate the dimensions admit is a node, its series
// computed when it is first asked for. Two base series with the same
// member values are an error, not summed into one node, and the graph
// shares the value arrays of base instead of copying them (it never writes
// them in place; do not write them either once the graph exists).
func NewGraph(dims []Dimension, base []BaseSeries) (*Graph, error) {
	return cube.NewGraph(dims, base)
}

// Advise runs the model configuration advisor to completion and returns
// the selected configuration. The zero AdvisorOptions value uses the
// paper's defaults (triple exponential smoothing, 80/20 split, α schedule
// 0.1 → 1.0).
func Advise(g *Graph, opts AdvisorOptions) (*Configuration, error) {
	return core.Run(g, opts)
}

// NewAdvisor returns a stepwise advisor for anytime use: call Step until
// it reports completion, inspecting Configuration() between steps.
func NewAdvisor(g *Graph, opts AdvisorOptions) (*Advisor, error) {
	return core.NewAdvisor(g, opts)
}

// OpenDB loads a configuration into the embedded F²DB engine for forecast
// query processing and incremental maintenance.
func OpenDB(g *Graph, cfg *Configuration, opts DBOptions) (*DB, error) {
	return f2db.Open(g, cfg, opts)
}

// SaveConfiguration serializes a configuration (graph assignments,
// derivation schemes and model states) in F²DB's two-table layout.
func SaveConfiguration(w io.Writer, cfg *Configuration) error {
	return f2db.SaveConfiguration(w, cfg)
}

// LoadConfiguration restores a configuration saved with SaveConfiguration
// onto a freshly built graph of the same data set.
func LoadConfiguration(r io.Reader, g *Graph) (*Configuration, error) {
	return f2db.LoadConfiguration(r, g)
}

// CSVOptions configures LoadCSV.
type CSVOptions = csvload.Options

// LoadCSV reads a fact-table CSV (layout: time,<level columns...>,value)
// into dimensions and base series ready for NewGraph. The dimension spec
// declares columns and hierarchies, e.g. "product;location=city<region";
// functional dependencies are derived from the data.
func LoadCSV(r io.Reader, spec string, opts CSVOptions) ([]Dimension, []BaseSeries, error) {
	specs, err := csvload.ParseSpec(spec)
	if err != nil {
		return nil, nil, err
	}
	return csvload.Load(r, specs, opts)
}

// SaveDatabase serializes the entire engine — dimensions, series at their
// current length, model states and any pending insert batch — so a session
// can be resumed with LoadDatabase without re-running the advisor.
func SaveDatabase(w io.Writer, db *DB) error { return f2db.SaveDatabase(w, db) }

// LoadDatabase restores an engine snapshot produced by SaveDatabase.
func LoadDatabase(r io.Reader, opts DBOptions) (*DB, error) {
	return f2db.LoadDatabase(r, opts)
}

// Baseline configuration builders of Section VI-B, useful for comparison.
var (
	// Direct models every node.
	Direct = hierarchical.Direct
	// BottomUp models base series only and aggregates their forecasts.
	BottomUp = hierarchical.BottomUp
	// TopDown models the top node and disaggregates by historical share.
	TopDown = hierarchical.TopDown
	// Combine reconciles all-level forecasts by least squares (Hyndman
	// et al.).
	Combine = hierarchical.Combine
	// CombineWLS is the residual-variance-weighted (MinT-WLS)
	// reconciliation variant.
	CombineWLS = hierarchical.CombineWLS
	// Greedy builds all models and keeps the most beneficial ones.
	Greedy = hierarchical.Greedy
)
