package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/datasets"
	"cubefc/internal/hierarchical"
)

// Scale controls the size of the experiment data sets: Quick keeps every
// run in seconds (CI-friendly), Paper uses the sizes reported in Section
// VI (Energy with 86 customers over 240 days, Gen10k, Gen100k in the
// scalability sweep).
type Scale int

const (
	// Quick shrinks the data sets so every experiment finishes within
	// seconds.
	Quick Scale = iota
	// Paper uses the paper's data set sizes.
	Paper
)

// Seed is the fixed RNG seed for all experiment data sets.
const Seed = 42

// LoadDataset builds one of the evaluation data sets by name: "tourism",
// "sales", "energy", "gen<k>" (e.g. "gen10k"), or "cube<N>" for the
// synthetic benchmark cube sized to ~N hyper-graph nodes (e.g. "cube100k";
// see DESIGN.md §9).
func LoadDataset(name string, scale Scale) (*datasets.Dataset, error) {
	if n, ok := parseCubeName(name); ok {
		return datasets.GenCube(Seed, datasets.CubeGenForNodes(n, 2)), nil
	}
	switch name {
	case "tourism":
		return datasets.Tourism(Seed), nil
	case "sales":
		return datasets.Sales(Seed), nil
	case "energy":
		if scale == Paper {
			return datasets.Energy(Seed, datasets.EnergyOptions{}), nil
		}
		return datasets.Energy(Seed, datasets.EnergyOptions{Customers: 30, Days: 40}), nil
	case "gen1k":
		return datasets.GenX(Seed, 1000), nil
	case "gen10k":
		if scale == Paper {
			return datasets.GenX(Seed, 10000), nil
		}
		return datasets.GenX(Seed, 2000), nil
	default:
		return nil, fmt.Errorf("experiments: unknown data set %q", name)
	}
}

// parseCubeName recognizes "cube<N>" data set names, with an optional
// "k"/"m" suffix on N ("cube100k" → 100 000 target nodes).
func parseCubeName(name string) (int, bool) {
	const prefix = "cube"
	if !strings.HasPrefix(name, prefix) {
		return 0, false
	}
	rest := name[len(prefix):]
	mult := 1
	switch {
	case strings.HasSuffix(rest, "k"):
		mult, rest = 1_000, strings.TrimSuffix(rest, "k")
	case strings.HasSuffix(rest, "m"):
		mult, rest = 1_000_000, strings.TrimSuffix(rest, "m")
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 1 {
		return 0, false
	}
	return n * mult, true
}

// Approach names in the order of Figure 7.
var Approaches = []string{"Direct", "BottomUp", "TopDown", "Combine", "Greedy", "Advisor"}

// RunApproach executes one approach on a graph and reports the resulting
// configuration and wall-clock construction time.
func RunApproach(name string, g *cube.Graph, hopts hierarchical.Options, aopts core.Options) (*core.Configuration, time.Duration, error) {
	start := time.Now()
	var cfg *core.Configuration
	var err error
	switch name {
	case "Direct":
		cfg, err = hierarchical.Direct(g, hopts)
	case "BottomUp":
		cfg, err = hierarchical.BottomUp(g, hopts)
	case "TopDown":
		cfg, err = hierarchical.TopDown(g, hopts)
	case "Combine":
		cfg, err = hierarchical.Combine(g, hopts)
	case "Greedy":
		cfg, err = hierarchical.Greedy(g, hopts)
	case "Advisor":
		cfg, err = core.Run(g, aopts)
	default:
		return nil, 0, fmt.Errorf("experiments: unknown approach %q", name)
	}
	return cfg, time.Since(start), err
}

// Fig7 reproduces the accuracy analysis of Figure 7 for one data set:
// forecast error (dark bars) and number of models (light bars) per
// approach. Next to the error on the test window the approach selects on,
// the held-out column is the error of the engine's served forecasts over
// RollingOrigins (HeldOut). Combine is skipped on the synthetic set, as in the paper
// ("we did not execute the Combine approach for the Syn10k data set due to
// the long execution time").
func Fig7(dataset string, scale Scale) (*Table, error) {
	ds, err := LoadDataset(dataset, scale)
	if err != nil {
		return nil, err
	}
	g, err := ds.Graph()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Fig 7 (%s): accuracy analysis — %d nodes, %d base series", dataset, g.NumNodes(), len(g.BaseIDs)),
		Header: []string{"approach", "error(SMAPE)", "held-out(SMAPE)", "#models", "runtime"},
	}
	for _, ap := range Approaches {
		if ap == "Combine" && (dataset == "gen10k" || dataset == "gen1k") {
			t.Notes = append(t.Notes, "Combine skipped on synthetic set (execution time, as in the paper)")
			continue
		}
		cfg, dur, err := RunApproach(ap, g, hierarchical.Options{}, core.Options{Seed: Seed})
		if err != nil {
			return nil, fmt.Errorf("fig7 %s/%s: %w", dataset, ap, err)
		}
		held, err := HeldOut(ds, ap, RollingOrigins, hierarchical.Options{}, core.Options{Seed: Seed})
		if err != nil {
			return nil, fmt.Errorf("fig7 %s/%s held out: %w", dataset, ap, err)
		}
		t.AddRow(ap, f4(cfg.Error()), f4(held), d(cfg.NumModels()), dur.Round(time.Millisecond).String())
	}
	return t, nil
}
