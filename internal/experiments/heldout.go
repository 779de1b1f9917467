package experiments

import (
	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/datasets"
	"cubefc/internal/f2db"
	"cubefc/internal/hierarchical"
	"cubefc/internal/timeseries"
)

// RollingOrigins are the origins Fig. 7's held-out column scores: one, two
// and three seasons before the end of the data.
var RollingOrigins = []int{1, 2, 3}

// HeldOut scores what an engine serves on data the approach never saw. For
// each rolling origin k in origins it removes the last k seasons of every
// base series, runs the approach on the rest, opens an engine on the
// configuration and takes the mean SMAPE, over every node, of the engine's
// one-season forecast against the season that follows the cut. It returns
// the mean over the origins.
func HeldOut(ds *datasets.Dataset, approach string, origins []int, hopts hierarchical.Options, aopts core.Options) (float64, error) {
	full, err := ds.Graph()
	if err != nil {
		return 0, err
	}
	var total float64
	for _, k := range origins {
		smape, err := heldOutAt(ds, full, approach, k*ds.Period, ds.Period, hopts, aopts)
		if err != nil {
			return 0, err
		}
		total += smape
	}
	return total / float64(len(origins)), nil
}

// heldOutAt is one origin of HeldOut: cut values removed, h steps scored.
func heldOutAt(ds *datasets.Dataset, full *cube.Graph, approach string, cut, h int, hopts hierarchical.Options, aopts core.Options) (float64, error) {
	base := make([]cube.BaseSeries, len(ds.Base))
	for i, b := range ds.Base {
		base[i] = cube.BaseSeries{Members: b.Members, Series: b.Series.Slice(0, b.Series.Len()-cut).Clone()}
	}
	g, err := cube.NewGraph(ds.Dims, base)
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
			sum += timeseries.SMAPE(full.History(id, nil)[g.Length:g.Length+h], fc)
		}
	}
	return sum / float64(g.NumNodes()), err
}
