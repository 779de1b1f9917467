package f2db

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"cubefc/internal/cube"
	"cubefc/internal/timeseries"
)

// Engine snapshots: the entire database — dimensions, base series at their
// current length, the model configuration with live model states, and any
// half-filled insert batch — serialized into one image (image.go). This is
// the embedded analogue of F²DB's persistent PostgreSQL storage: an engine
// can be shut down and reopened without re-running the advisor. The image
// is written straight from the graph, every collection in a fixed order, so
// its bytes are a function of the engine's state. Its items:
//
//	shape     dimension count, base count, length, period, step duration
//	dimension name, levels; then per level below the top its parent-map
//	          size, then one item per (member, parent) pair in member order
//	base      its members, per base in BaseIDs order
//	values    every base's series, base after base, in recValues records
//	config    the configuration section (storage.go)
//	state     updates since fit, rolling error, invalid — per model in
//	          the configuration's model order
//	pending   the half-filled batch's row count, then one item per row:
//	          base ordinal, value, in ascending ordinal
//	counters  rows accepted and batches completed at save time
//
// The counters restore into the reopened engine so its applied-row counter
// keeps counting from where the saved engine stood — which is what lets a
// cluster coordinator realign a shard restarted from a mid-history snapshot
// against its statement log (wire.Info.Inserts reports this counter; the
// coordinator matches it to cumulative statement boundaries). The model
// states make a reopened engine re-estimate the models the saved one would
// have.

// SaveDatabase serializes the whole engine state. It holds maint for the
// duration: concurrent queries proceed, while an insert statement, advance
// or re-fit in flight finishes first and the next one waits, so the image
// holds each statement's rows all or none. No writer takes mu without
// maint, so the image needs no mu.
func SaveDatabase(w io.Writer, db *DB) error {
	db.maint.Lock()
	img, err := db.appendSnapshot()
	db.maint.Unlock()
	if err != nil {
		return err
	}
	_, err = w.Write(img)
	return err
}

// appendSnapshot renders the snapshot image for a caller that holds maint,
// such as Durable.Checkpoint: no advance can slip between the snapshot and
// the generation it records.
func (db *DB) appendSnapshot() ([]byte, error) {
	g := db.graph
	w := newImageWriter(snapshotMagic, 8*len(g.BaseIDs)*g.Length+64*g.NumNodes()+4096)
	w.begin(recItems)
	w.int(len(g.Dims))
	w.int(len(g.BaseIDs))
	w.int(g.Length)
	w.int(g.Period)
	w.u64(uint64(db.planner.step))
	for _, d := range g.Dims {
		if len(d.Parents) != len(d.Levels)-1 {
			return nil, fmt.Errorf("f2db: dimension %q has %d parent maps for %d levels", d.Name, len(d.Parents), len(d.Levels))
		}
		w.begin(recItems)
		w.str(d.Name)
		w.int(len(d.Levels))
		for _, l := range d.Levels {
			w.str(l)
		}
		for _, parents := range d.Parents {
			members := make([]string, 0, len(parents))
			for m := range parents {
				members = append(members, m)
			}
			slices.Sort(members)
			w.begin(recItems)
			w.int(len(members))
			for _, m := range members {
				w.begin(recItems)
				w.str(m)
				w.str(parents[m])
			}
		}
	}
	for _, id := range g.BaseIDs {
		w.begin(recItems)
		for _, cell := range g.CoordOf(id) {
			w.str(cell.Value)
		}
	}
	for _, id := range g.BaseIDs {
		w.begin(recValues)
		for _, v := range g.Node(id).Series.Values[:g.Length] {
			w.f64(v)
		}
	}
	ids := db.cfg.ModelIDs()
	if err := w.config(db.cfg, ids); err != nil {
		return nil, err
	}
	for _, id := range ids {
		w.begin(recItems)
		w.int(db.mstats[id].UpdatesSinceFit)
		w.f64(db.mstats[id].RollingError)
		w.bool(db.invalid[id])
	}
	pending := 0
	for _, p := range db.present {
		if p {
			pending++
		}
	}
	w.begin(recItems)
	w.int(pending)
	for ord, p := range db.present {
		if p {
			w.begin(recItems)
			w.int(ord)
			w.f64(db.pending[ord])
		}
	}
	w.begin(recItems)
	w.u64(uint64(db.met.inserts.Load()))
	w.u64(uint64(db.met.batches.Load()))
	return w.finish(), nil
}

// LoadDatabase restores an engine saved with SaveDatabase. The strategy is
// not persisted (it may hold arbitrary behavior); pass the desired one in
// opts — opts.StepDuration, when zero, is taken from the snapshot.
func LoadDatabase(r io.Reader, opts Options) (*DB, error) {
	data, err := readImage(r)
	if err != nil {
		return nil, fmt.Errorf("f2db: reading database image: %w", err)
	}
	return loadDatabase(data, opts)
}

// loadDatabase is LoadDatabase over the image's bytes, which the engine
// does not keep.
func loadDatabase(data []byte, opts Options) (*DB, error) {
	r, err := openImage(data, snapshotMagic, "database image")
	if err != nil {
		return nil, err
	}
	db, err := r.database(opts)
	if err != nil {
		return nil, fmt.Errorf("f2db: decoding database image: %w", err)
	}
	return db, nil
}

// database decodes a snapshot's items into a new engine.
func (r *imageReader) database(opts Options) (*DB, error) {
	r.begin(recItems)
	nd, nb := r.count("dimensions", 2), r.count("base series", 1)
	length, period := r.int(), r.int()
	step := time.Duration(r.u64())
	if r.err == nil && length < 1 {
		r.fail("a cube of length %d", length)
	}
	if r.err != nil {
		return nil, r.err
	}
	// A string recurs as a level name, a parent and a base member: decode
	// each distinct one once, into memory of its own.
	interned := make(map[string]string)
	str := func() string {
		b := r.bytes()
		s, ok := interned[string(b)]
		if !ok {
			s = string(b)
			interned[s] = s
		}
		return s
	}
	dims := make([]cube.Dimension, nd)
	for i := range dims {
		r.begin(recItems)
		d := &dims[i]
		d.Name = str()
		if d.Levels = make([]string, r.count("levels", 1)); len(d.Levels) == 0 {
			r.fail("dimension %d has no levels", i)
		}
		for l := range d.Levels {
			d.Levels[l] = str()
		}
		d.Parents = make([]map[string]string, max(len(d.Levels)-1, 0))
		for l := range d.Parents {
			r.begin(recItems)
			n := r.count("parent pairs", 2)
			d.Parents[l] = make(map[string]string, n)
			prev := ""
			for j := range n {
				r.begin(recItems)
				m, p := str(), str()
				if j > 0 && m <= prev {
					r.fail("dimension %q level %d: member %q after %q", d.Name, l, m, prev)
				}
				d.Parents[l][m], prev = p, m
			}
		}
		if r.err != nil {
			return nil, r.err
		}
	}
	if nd > 0 && nb > r.left()/nd {
		r.fail("%d base series of %d members in %d bytes", nb, nd, r.left())
	}
	members := make([]string, nb*nd)
	for i := range nb {
		r.begin(recItems)
		for d := range nd {
			members[i*nd+d] = str()
		}
	}
	if r.err == nil && length > 0 && nb > r.left()/8/length {
		r.fail("%d base series of %d values in %d bytes", nb, length, r.left())
	}
	if r.err != nil {
		return nil, r.err
	}
	// The bases share one value array; the graph caps each series at its
	// length, so the first Advance moves every series to memory of its own.
	values := make([]float64, nb*length)
	series := make([]timeseries.Series, nb)
	base := make([]cube.BaseSeries, nb)
	for i := range base {
		if !r.begin(recValues) {
			return nil, fmt.Errorf("base series %d has no values: %w", i, r.err)
		}
		raw, vals := r.take(8*length), values[i*length:(i+1)*length:(i+1)*length]
		if r.err != nil {
			return nil, r.err
		}
		for t := range vals {
			vals[t] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*t:]))
		}
		series[i] = timeseries.Series{Values: vals, Period: period}
		base[i] = cube.BaseSeries{Members: members[i*nd : (i+1)*nd : (i+1)*nd], Series: &series[i]}
	}
	g, err := cube.NewGraph(dims, base)
	if err != nil {
		return nil, fmt.Errorf("rebuilding graph: %w", err)
	}
	cfg, ids, err := r.config(g)
	if err != nil {
		return nil, err
	}
	if opts.StepDuration <= 0 {
		opts.StepDuration = step
	}
	// The image's models are current at its length: no catch-up.
	db, err := open(g, cfg, opts)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		r.begin(recItems)
		*db.mstats[id] = ModelStats{UpdatesSinceFit: r.int(), RollingError: r.f64()}
		db.invalid[id] = r.bool()
	}
	r.begin(recItems)
	n := r.count("pending rows", 2)
	if n > nb {
		r.fail("%d pending rows for %d base series", n, nb)
	}
	// Restore the half-filled insert batch through the batched write path:
	// one lock acquisition for the whole image instead of one per value.
	pending := make(map[int]float64, n)
	prev := -1
	for range n {
		r.begin(recItems)
		ord, v := r.int(), r.f64()
		if r.err == nil && (ord <= prev || ord >= nb) {
			r.fail("pending row for base ordinal %d after %d of %d", ord, prev, nb)
		}
		if r.err != nil {
			return nil, r.err
		}
		pending[g.BaseIDs[ord]], prev = v, ord
	}
	r.begin(recItems)
	inserts, batches := r.u64(), r.u64()
	if err := r.end(); err != nil {
		return nil, err
	}
	if len(pending) > 0 {
		if err := db.InsertBatch(pending); err != nil {
			return nil, err
		}
	}
	// Restore the maintenance counters to their save-time values. The
	// pending replay above already counted its rows, so a Store (not Add)
	// lands exactly on the saved state.
	db.met.inserts.Store(int64(inserts))
	db.met.batches.Store(int64(batches))
	return db, nil
}
