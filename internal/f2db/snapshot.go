package f2db

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"cubefc/internal/cube"
)

// Engine snapshots: the entire database — dimensions, base series at their
// current length, the model configuration with live model states, and any
// half-filled insert batch — serialized into one stream. This is the
// embedded analogue of F²DB's persistent PostgreSQL storage: an engine can
// be shut down and reopened without re-running the advisor.

// dbImage is the serialized engine. Older images also carry the texts and
// forecast keys of a warm-up that no engine runs any more; gob skips fields
// the type lacks, so they load as they are.
type dbImage struct {
	Dims         []cube.Dimension
	Base         []cube.BaseSeries
	Config       []byte // nested configuration image (SaveConfiguration)
	Pending      map[string]float64
	StepDuration time.Duration
	// Inserts and Batches are the maintenance counters at save time: rows
	// accepted (including the half-filled batch above) and time advances
	// completed. They restore into the reopened engine so its applied-row
	// counter keeps counting from where the saved engine stood — which is
	// what lets a cluster coordinator realign a shard restarted from a
	// mid-history snapshot against its statement log (wire.Info.Inserts
	// reports this counter; the coordinator matches it to cumulative
	// statement boundaries). gob tolerates the fields being absent, so
	// older snapshots load with zeroed counters, the previous behavior.
	Inserts uint64
	Batches uint64
	// Models is every model's maintenance state, so a reopened engine
	// re-estimates the models the saved one would have. Older snapshots
	// lack it and load with every model fresh and valid, as they did.
	Models []modelState
}

// modelState is one model's persisted maintenance state, keyed by the
// node's canonical coordinate key, which survives any change to node
// enumeration order.
type modelState struct {
	NodeKey string
	ModelStats
	Invalid bool
}

// SaveDatabase serializes the whole engine state. It holds maint for the
// duration: concurrent queries proceed, while an insert statement, advance
// or re-fit in flight finishes first and the next one waits, so the image
// holds each statement's rows all or none. No writer takes mu without
// maint, so the image needs no mu.
func SaveDatabase(w io.Writer, db *DB) error {
	db.maint.Lock()
	defer db.maint.Unlock()
	return db.saveDatabase(w)
}

// saveDatabase is SaveDatabase for a caller that holds maint, such as
// Durable.Checkpoint: no advance can slip between the snapshot and the
// generation it records.
func (db *DB) saveDatabase(w io.Writer) error {
	held := make([]baseRow, 0, db.pendingTotal.Load())
	for ord, id := range db.graph.BaseIDs {
		if db.present[ord] {
			held = append(held, baseRow{id, db.pending[ord]})
		}
	}
	img := dbImage{
		Dims:         db.graph.Dims,
		StepDuration: db.planner.step,
		Pending:      make(map[string]float64, len(held)),
		Inserts:      uint64(db.met.inserts.Load()),
		Batches:      uint64(db.met.batches.Load()),
	}
	for _, r := range held {
		img.Pending[db.graph.KeyOf(r.id)] = r.value
	}
	for _, id := range db.cfg.ModelIDs() {
		img.Models = append(img.Models, modelState{db.graph.KeyOf(id), *db.mstats[id], db.invalid[id]})
	}
	for _, id := range db.graph.BaseIDs {
		n := db.graph.Node(id)
		members := make([]string, len(n.Coord))
		for d, cell := range n.Coord {
			members[d] = cell.Value
		}
		img.Base = append(img.Base, cube.BaseSeries{
			Members: members,
			Series:  n.Series.Slice(0, db.graph.Length).Clone(),
		})
	}
	var cfgBuf bytes.Buffer
	if err := SaveConfiguration(&cfgBuf, db.cfg); err != nil {
		return err
	}
	img.Config = cfgBuf.Bytes()
	return gob.NewEncoder(w).Encode(&img)
}

// LoadDatabase restores an engine saved with SaveDatabase. The strategy is
// not persisted (it may hold arbitrary behavior); pass the desired one in
// opts — opts.StepDuration, when zero, is taken from the snapshot.
func LoadDatabase(r io.Reader, opts Options) (*DB, error) {
	var img dbImage
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return nil, fmt.Errorf("f2db: decoding database image: %w", err)
	}
	g, err := cube.NewGraph(img.Dims, img.Base)
	if err != nil {
		return nil, fmt.Errorf("f2db: rebuilding graph: %w", err)
	}
	cfg, err := LoadConfiguration(bytes.NewReader(img.Config), g)
	if err != nil {
		return nil, err
	}
	if opts.StepDuration <= 0 {
		opts.StepDuration = img.StepDuration
	}
	// The image's models are current at its length: no catch-up.
	db, err := open(g, cfg, opts)
	if err != nil {
		return nil, err
	}
	for _, m := range img.Models {
		id, ok := g.LookupID(m.NodeKey)
		if !ok || db.mstats[id] == nil {
			return nil, fmt.Errorf("f2db: maintenance state for %q, which has no model", m.NodeKey)
		}
		*db.mstats[id] = m.ModelStats
		db.invalid[id] = m.Invalid
	}
	// Restore the half-filled insert batch through the batched write path:
	// one lock acquisition for the whole image instead of one per value.
	pending := make(map[int]float64, len(img.Pending))
	for key, v := range img.Pending {
		id, ok := g.LookupID(key)
		if !ok {
			return nil, fmt.Errorf("f2db: pending insert for unknown node %q", key)
		}
		pending[id] = v
	}
	if len(pending) > 0 {
		if err := db.InsertBatch(pending); err != nil {
			return nil, err
		}
	}
	// Restore the maintenance counters to their save-time values. The
	// pending replay above already counted its rows, so an unconditional
	// Store (not Add) lands exactly on the saved state; images from before
	// counter persistence carry zeros and keep the old reset-on-load
	// behavior.
	if img.Inserts > 0 {
		db.met.inserts.Store(int64(img.Inserts))
	}
	if img.Batches > 0 {
		db.met.batches.Store(int64(img.Batches))
	}
	return db, nil
}
