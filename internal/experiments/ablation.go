package experiments

import (
	"fmt"
	"time"

	"cubefc/internal/core"
	"cubefc/internal/forecast"
	"cubefc/internal/indicator"
)

// Ablations covers the design decisions called out in DESIGN.md §6 by
// switching individual advisor mechanisms off and measuring the effect on
// error, model count and runtime for each data set.
func Ablations(scale Scale) (*Table, error) {
	t := &Table{
		Title:  "Ablations: advisor design decisions",
		Header: []string{"dataset", "variant", "error(SMAPE)", "#models", "runtime"},
	}
	variants := []struct {
		name string
		opts func() core.Options
	}{
		{"full advisor", func() core.Options {
			return core.Options{Seed: Seed}
		}},
		{"no stability term", func() core.Options {
			return core.Options{Seed: Seed,
				Indicator: indicator.Config{StabilityWeight: -1}}
		}},
		{"fixed gamma", func() core.Options {
			return core.Options{Seed: Seed, FixedGamma: true, Gamma0: 1}
		}},
		{"no multi-source probes", func() core.Options {
			return core.Options{Seed: Seed, MultiSourceProbes: -1}
		}},
		{"no deletion", func() core.Options {
			return core.Options{Seed: Seed, DisableDeletion: true}
		}},
		{"error-only acceptance (a=1)", func() core.Options {
			return core.Options{Seed: Seed, Alpha0: 1, AlphaMax: 1}
		}},
		// The model family under the "fixed gamma" settings (whose row is
		// the default HW family): does another family pay its way?
		{"Theta models (fixed γ)", func() core.Options {
			return core.Options{Seed: Seed, FixedGamma: true, Gamma0: 1,
				ModelFactory: func(p int) forecast.Model { return forecast.NewTheta(p) }}
		}},
	}
	for _, name := range []string{"tourism", "sales", "energy", "gen1k"} {
		g, err := loadGraph(name, scale)
		if err != nil {
			return nil, err
		}
		for _, v := range variants {
			start := time.Now()
			opts := v.opts()
			// Bound the pure-error variant, which otherwise keeps adding
			// models as long as any node improves.
			opts.MaxIterations = 400
			cfg, err := core.Run(g, opts)
			if err != nil {
				return nil, fmt.Errorf("ablation %s/%s: %w", name, v.name, err)
			}
			t.AddRow(name, v.name, f4(cfg.Error()), d(cfg.NumModels()),
				time.Since(start).Round(time.Millisecond).String())
		}
	}
	return t, nil
}
