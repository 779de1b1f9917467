package f2db

import (
	"fmt"
	"io"
	"math"
	"slices"

	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/derivation"
	"cubefc/internal/forecast"
)

// Configuration storage (Section V): the paper adds two relational tables
// to PostgreSQL — one storing the time-series graph and model configuration
// (model assignments, derivation schemes, weights), and one storing the
// forecast models themselves including state and parameter values. The
// embedded engine writes both tables as the configuration section of an
// image (image.go), one item per row:
//
//	header  train length, cost seconds, model count, scheme count
//	model   node key, creation seconds, the model (forecast AppendBinary),
//	        in ModelIDs order
//	scheme  node key, weight, kind, error, source count, then each source
//	        as its model's position in the model rows, in node-ID order
//
// Node identity across save/load is the canonical coordinate key, so a
// configuration can be restored onto a freshly rebuilt graph of the same
// data set. A configuration file is this section behind its own magic; a
// snapshot carries it too.

// SaveConfiguration serializes a configuration: models in ModelIDs order
// and schemes in ascending node ID, so one configuration always saves to
// the same bytes.
func SaveConfiguration(w io.Writer, cfg *core.Configuration) error {
	iw := newImageWriter(configMagic, 64*cfg.NumSchemes()+512*len(cfg.Models)+64)
	if err := iw.config(cfg, cfg.ModelIDs()); err != nil {
		return err
	}
	_, err := w.Write(iw.finish())
	return err
}

// config writes cfg's configuration section; ids is cfg.ModelIDs().
func (w *imageWriter) config(cfg *core.Configuration, ids []int) error {
	g := cfg.Graph
	schemes := cfg.NumSchemes()
	w.begin(recItems)
	w.int(cfg.TrainLen)
	w.f64(cfg.CostSeconds)
	w.int(len(ids))
	w.int(schemes)
	var err error
	for _, id := range ids {
		w.begin(recItems)
		w.key(g, id)
		w.f64(cfg.ModelSeconds[id])
		if w.scratch, err = cfg.Models[id].AppendBinary(w.scratch[:0]); err != nil {
			return fmt.Errorf("f2db: encoding model at node %d: %w", id, err)
		}
		w.bytes(w.scratch)
	}
	written := 0
	for id, sc := range cfg.Schemes {
		if sc.Sources == nil {
			continue
		}
		written++
		w.begin(recItems)
		w.key(g, id)
		w.f64(sc.K)
		w.int(int(sc.Kind))
		w.f64(cfg.Errors[id])
		w.int(len(sc.Sources))
		for _, s := range sc.Sources {
			m, ok := slices.BinarySearch(ids, s)
			if !ok {
				return fmt.Errorf("f2db: scheme of node %d references model-less source %d", id, s)
			}
			w.int(m)
		}
	}
	if written != schemes {
		return fmt.Errorf("f2db: configuration counts %d schemes and holds %d", schemes, written)
	}
	return nil
}

// LoadConfiguration restores a configuration onto the given graph (which
// must describe the same data set: all stored node keys must resolve).
func LoadConfiguration(r io.Reader, g *cube.Graph) (*core.Configuration, error) {
	data, err := readImage(r)
	if err != nil {
		return nil, fmt.Errorf("f2db: reading configuration: %w", err)
	}
	ir, err := openImage(data, configMagic, "configuration")
	if err != nil {
		return nil, err
	}
	cfg, _, err := ir.config(g)
	if err == nil {
		err = ir.end()
	}
	if err != nil {
		return nil, fmt.Errorf("f2db: decoding configuration: %w", err)
	}
	return cfg, nil
}

// config decodes a configuration section onto g. It returns the model
// nodes in the order of their rows.
func (r *imageReader) config(g *cube.Graph) (*core.Configuration, []int, error) {
	r.begin(recItems)
	trainLen, cost := r.int(), r.f64()
	models, schemes := r.count("models", 1), r.count("schemes", 1)
	switch {
	case r.err != nil:
		return nil, nil, r.err
	case trainLen > g.Length:
		return nil, nil, fmt.Errorf("trained on %d points of a %d-point graph", trainLen, g.Length)
	case models > g.NumNodes() || schemes > g.NumNodes():
		return nil, nil, fmt.Errorf("%d models and %d schemes on %d nodes", models, schemes, g.NumNodes())
	}
	cfg := core.NewConfiguration(g, trainLen)
	cfg.CostSeconds = cost
	ids := make([]int, models)
	for i := range ids {
		r.begin(recItems)
		id, secs, blob := r.node(g), r.f64(), r.bytes()
		if r.err != nil {
			return nil, nil, r.err
		}
		if _, dup := cfg.Models[id]; dup {
			return nil, nil, fmt.Errorf("two models for node %q", g.KeyOf(id))
		}
		m, err := forecast.DecodeModel(blob)
		if err != nil {
			return nil, nil, fmt.Errorf("model at node %q: %w", g.KeyOf(id), err)
		}
		ids[i] = id
		cfg.Models[id] = m
		cfg.ModelSeconds[id] = secs
	}
	// Every scheme's sources share one array, clipped per scheme.
	sources := make([]int, 0, schemes)
	for range schemes {
		r.begin(recItems)
		id, k, kind, e := r.node(g), r.f64(), r.int(), r.f64()
		n := r.count("sources", 1)
		start := len(sources)
		for range n {
			if m := r.int(); m < len(ids) {
				sources = append(sources, ids[m])
			} else {
				r.fail("source %d of %d models", m, len(ids))
			}
		}
		switch {
		case r.err != nil:
			return nil, nil, r.err
		case kind > math.MaxInt32:
			return nil, nil, fmt.Errorf("scheme kind %d", kind)
		}
		if cfg.Schemes[id].Sources != nil {
			return nil, nil, fmt.Errorf("two schemes for node %q", g.KeyOf(id))
		}
		cfg.SetScheme(derivation.Scheme{Target: id, Sources: sources[start:len(sources):len(sources)], K: k, Kind: derivation.Kind(kind)}, e)
	}
	if err := cfg.Validate(); err != nil {
		return nil, nil, fmt.Errorf("restored configuration invalid: %w", err)
	}
	return cfg, ids, nil
}
