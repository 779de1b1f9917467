package f2db

import "cubefc/internal/derivation"

// Read-only views over the engine's internal state. The engine used to
// return its live *cube.Graph and *core.Configuration, letting callers read
// series values and model state while maintenance batches mutated them.
// The views below expose what callers legitimately need: structural graph
// facts (node count, keys, base IDs — immutable after construction) without
// locking, and mutable facts (series length, history values, model
// families) under the engine's read lock. Anything returned is a copy.

// GraphView is a read-only view of the engine's time-series hyper graph.
type GraphView struct{ db *DB }

// Graph returns a read-only view of the underlying time-series hyper
// graph. Structural accessors (NumNodes, TopID, BaseIDs, NodeKey, IsBase)
// never block; Length and NodeValues take the engine's shared read
// lock so they are consistent with concurrent maintenance.
func (db *DB) Graph() GraphView { return GraphView{db: db} }

// NumNodes returns the number of nodes in the graph.
func (v GraphView) NumNodes() int { return v.db.graph.NumNodes() }

// TopID returns the ID of the node aggregating over all dimensions.
func (v GraphView) TopID() int { return v.db.graph.TopID }

// BaseIDs returns a copy of the finest-level node IDs in enumeration
// order.
func (v GraphView) BaseIDs() []int {
	return append([]int(nil), v.db.graph.BaseIDs...)
}

// NumBase returns the number of base series.
func (v GraphView) NumBase() int { return len(v.db.graph.BaseIDs) }

// IsBase reports whether the node is a base (finest-level) series.
func (v GraphView) IsBase(id int) bool {
	return v.db.graph.IsBase(id)
}

// NodeKey returns the canonical coordinate key of a node ("" when out of
// range).
func (v GraphView) NodeKey(id int) string {
	g := v.db.graph
	if id < 0 || id >= g.NumNodes() {
		return ""
	}
	return g.KeyOf(id)
}

// Length returns the current number of observations in every node series.
func (v GraphView) Length() int {
	v.db.mu.RLock()
	defer v.db.mu.RUnlock()
	return v.db.graph.Length
}

// NodeValues returns a copy of the node's stored history.
func (v GraphView) NodeValues(id int) []float64 {
	g := v.db.graph
	if id < 0 || id >= g.NumNodes() {
		return nil
	}
	v.db.mu.RLock()
	defer v.db.mu.RUnlock()
	return append([]float64(nil), g.Node(id).Series.Values[:g.Length]...)
}

// ConfigView is a read-only view of the loaded model configuration.
type ConfigView struct{ db *DB }

// Configuration returns a read-only view of the loaded model
// configuration. The derivation schemes are immutable while the engine is
// open; the models are not — a re-fit installs a new one under the write
// lock — so the model accessors take the engine's read lock.
func (db *DB) Configuration() ConfigView { return ConfigView{db: db} }

// NumModels returns the number of models in the configuration.
func (v ConfigView) NumModels() int {
	v.db.mu.RLock()
	defer v.db.mu.RUnlock()
	return len(v.db.cfg.Models)
}

// ModelIDs returns the sorted node IDs carrying a model.
func (v ConfigView) ModelIDs() []int {
	v.db.mu.RLock()
	defer v.db.mu.RUnlock()
	return v.db.cfg.ModelIDs()
}

// ModelFamily returns the family name of the model at the node ("" when
// the node carries none).
func (v ConfigView) ModelFamily(id int) string {
	v.db.mu.RLock()
	defer v.db.mu.RUnlock()
	if m, ok := v.db.cfg.Models[id]; ok {
		return m.Name()
	}
	return ""
}

// Scheme returns a copy of the derivation scheme stored for the node. The
// returned scheme carries the advisor-selected weight; the engine answers
// queries with the incrementally maintained live weight (see Explain for
// the rendered plan).
func (v ConfigView) Scheme(id int) (derivation.Scheme, bool) {
	sc, ok := v.db.cfg.Schemes[id]
	if !ok {
		return derivation.Scheme{}, false
	}
	sc.Sources = append([]int(nil), sc.Sources...)
	return sc, true
}

// Explain renders the derivation plan of a node, like the SQL EXPLAIN
// prefix.
func (db *DB) Explain(nodeID int) string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.explainNode(nodeID)
}
