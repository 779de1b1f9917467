package f2db

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/derivation"
	"cubefc/internal/forecast"
)

// Configuration storage (Section V): the paper adds two relational tables
// to PostgreSQL — one storing the time-series graph and model configuration
// (model assignments, derivation schemes, weights), and one storing the
// forecast models themselves including state and parameter values. The
// embedded engine mirrors that layout: ConfigRow and ModelRow are the
// tables, serialized with encoding/gob. Node identity across save/load is
// the canonical coordinate key, so a configuration can be restored onto a
// freshly rebuilt graph of the same data set.

// ConfigRow is one row of the graph/configuration table.
type ConfigRow struct {
	NodeKey    string
	SourceKeys []string
	Weight     float64
	Kind       int
	Error      float64
}

// ModelRow is one row of the model table: the gob-encoded model (state and
// parameter values) for a node.
type ModelRow struct {
	NodeKey      string
	Blob         []byte
	CreationSecs float64
}

// configImage is the serialized form of a configuration.
type configImage struct {
	TrainLen    int
	CostSeconds float64
	Config      []ConfigRow
	Models      []ModelRow
}

// SaveConfiguration serializes a configuration into the two-table layout:
// schemes in ascending node ID and models in ModelIDs order, so one
// configuration always saves to the same bytes.
func SaveConfiguration(w io.Writer, cfg *core.Configuration) error {
	g := cfg.Graph
	img := configImage{TrainLen: cfg.TrainLen, CostSeconds: cfg.CostSeconds}
	for id := 0; id < g.NumNodes(); id++ {
		sc, ok := cfg.Schemes[id]
		if !ok {
			continue
		}
		row := ConfigRow{
			NodeKey: g.KeyOf(id),
			Weight:  sc.K,
			Kind:    int(sc.Kind),
			Error:   cfg.Errors[id],
		}
		for _, s := range sc.Sources {
			row.SourceKeys = append(row.SourceKeys, g.KeyOf(s))
		}
		img.Config = append(img.Config, row)
	}
	for _, id := range cfg.ModelIDs() {
		m := cfg.Models[id]
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&m); err != nil {
			return fmt.Errorf("f2db: encoding model at node %d: %w", id, err)
		}
		img.Models = append(img.Models, ModelRow{
			NodeKey:      g.KeyOf(id),
			Blob:         buf.Bytes(),
			CreationSecs: cfg.ModelSeconds[id],
		})
	}
	return gob.NewEncoder(w).Encode(&img)
}

// LoadConfiguration restores a configuration onto the given graph (which
// must describe the same data set: all stored node keys must resolve).
func LoadConfiguration(r io.Reader, g *cube.Graph) (*core.Configuration, error) {
	var img configImage
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return nil, fmt.Errorf("f2db: decoding configuration: %w", err)
	}
	cfg := core.NewConfiguration(g, img.TrainLen)
	cfg.CostSeconds = img.CostSeconds
	resolve := func(key string) (int, error) {
		id, ok := g.LookupID(key)
		if !ok {
			return 0, fmt.Errorf("f2db: stored node %q not present in graph", key)
		}
		return id, nil
	}
	for _, row := range img.Models {
		id, err := resolve(row.NodeKey)
		if err != nil {
			return nil, err
		}
		var m forecast.Model
		if err := gob.NewDecoder(bytes.NewReader(row.Blob)).Decode(&m); err != nil {
			return nil, fmt.Errorf("f2db: decoding model %q: %w", row.NodeKey, err)
		}
		cfg.Models[id] = m
		cfg.ModelSeconds[id] = row.CreationSecs
	}
	for _, row := range img.Config {
		id, err := resolve(row.NodeKey)
		if err != nil {
			return nil, err
		}
		sc := derivation.Scheme{Target: id, K: row.Weight, Kind: derivation.Kind(row.Kind)}
		for _, sk := range row.SourceKeys {
			sid, err := resolve(sk)
			if err != nil {
				return nil, err
			}
			sc.Sources = append(sc.Sources, sid)
		}
		cfg.Schemes[id] = sc
		cfg.Errors[id] = row.Error
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("f2db: restored configuration invalid: %w", err)
	}
	return cfg, nil
}
