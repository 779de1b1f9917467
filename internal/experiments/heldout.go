package experiments

import (
	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/datasets"
	"cubefc/internal/f2db"
	"cubefc/internal/hierarchical"
	"cubefc/internal/timeseries"
)

// HeldOut scores what an engine serves on data the approach never saw: it
// removes the last h values of every base series, runs the approach on the
// rest, opens an engine on the configuration and returns the mean SMAPE,
// over every node, of the engine's h-step forecast against the removed
// values.
func HeldOut(ds *datasets.Dataset, approach string, h int, hopts hierarchical.Options, aopts core.Options) (float64, error) {
	full, err := ds.Graph()
	if err != nil {
		return 0, err
	}
	cut := make([]cube.BaseSeries, len(ds.Base))
	for i, b := range ds.Base {
		cut[i] = cube.BaseSeries{Members: b.Members, Series: b.Series.Slice(0, b.Series.Len()-h).Clone()}
	}
	g, err := cube.NewGraph(ds.Dims, cut)
	if err != nil {
		return 0, err
	}
	cfg, _, err := RunApproach(approach, g, hopts, aopts)
	if err != nil {
		return 0, err
	}
	db, err := f2db.Open(g, cfg, f2db.Options{})
	var sum float64
	for id := 0; err == nil && id < g.NumNodes(); id++ {
		var fc []float64
		if fc, err = db.ForecastNode(id, h); err == nil {
			// Both graphs enumerate the same dimensions and members alike.
			sum += timeseries.SMAPE(full.History(id)[full.Length-h:], fc)
		}
	}
	return sum / float64(g.NumNodes()), err
}
