package cube

import "fmt"

// AdvanceMapOracle is Advance as it was while a batch was a map keyed by
// base node ID: the exact-ID validation, then one map probe per covered base
// of every materialized node. Kept as the reference TestAdvanceColumnTwin
// holds the column form against; like EagerOracle it is exported for the
// external test package.
func AdvanceMapOracle(g *Graph, values map[int]float64) error {
	if len(values) != len(g.BaseIDs) {
		return fmt.Errorf("cube: Advance needs a value for all %d base series, got %d", len(g.BaseIDs), len(values))
	}
	for bid := range values {
		if !g.IsBase(bid) {
			return fmt.Errorf("cube: Advance: %d is not a base node", bid)
		}
	}
	g.matMu.Lock()
	defer g.matMu.Unlock()
	for id := range g.nodes {
		n := g.nodes[id].Load()
		if n == nil {
			continue
		}
		var v float64
		for _, b := range g.inc(id) {
			v += values[g.BaseIDs[b]]
		}
		n.Series.Values = append(n.Series.Values, v)
	}
	g.Length++
	return nil
}

// AdvanceMap feeds Advance a batch keyed by base node ID, the form the tests
// older than the column were written in. A map that is not exactly the base
// IDs is an error and advances nothing.
func AdvanceMap(g *Graph, values map[int]float64) error {
	if len(values) != len(g.BaseIDs) {
		return fmt.Errorf("cube: Advance needs a value for all %d base series, got %d", len(g.BaseIDs), len(values))
	}
	column := make([]float64, len(g.BaseIDs))
	for i, id := range g.BaseIDs {
		v, ok := values[id]
		if !ok {
			return fmt.Errorf("cube: Advance: no value for base node %d", id)
		}
		column[i] = v
	}
	return g.Advance(column)
}
