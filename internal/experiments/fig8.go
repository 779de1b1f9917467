package experiments

import (
	"fmt"
	"math"
	"time"

	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/derivation"
	"cubefc/internal/hierarchical"
	"cubefc/internal/indicator"
)

// Fig8a reproduces the indicator-accuracy correlation of Figure 8a: for
// the Sales and Tourism data sets it evaluates, for a sample of derivation
// schemes s → t, the cheap indicator against the real forecast error of
// the scheme (with an actually fitted model at s) and reports the Pearson
// correlation — the paper's claim is that points lie close to the
// identity line.
func Fig8a(scale Scale) (*Table, error) {
	t := &Table{
		Title:  "Fig 8a: correlation indicator vs real error",
		Header: []string{"dataset", "#schemes", "pearson r", "mean |ind-err|", "mean ind", "mean err"},
	}
	for _, name := range []string{"sales", "tourism"} {
		ds, err := LoadDataset(name, scale)
		if err != nil {
			return nil, err
		}
		g, err := ds.Graph()
		if err != nil {
			return nil, err
		}
		trainLen := core.TrainLen(g.Length)
		icfg := indicator.Config{StabilityWeight: 0.5, HistoryLen: trainLen}

		var inds, errs []float64
		// Fit one model per node once; evaluate derivations to every
		// other node.
		fc := make(map[int][]float64, g.NumNodes())
		for id := 0; id < g.NumNodes(); id++ {
			m := core.DefaultModelFactory(g.Period)
			if err := m.Fit(g.Node(id).Series.Slice(0, trainLen)); err != nil {
				continue
			}
			fc[id] = make([]float64, g.Length-trainLen)
			m.Forecast(fc[id])
		}
		var bfs cube.BFSScratch
		for s := 0; s < g.NumNodes(); s++ {
			if fc[s] == nil {
				continue
			}
			for _, tgt := range g.ClosestNodes(&bfs, s, 8) {
				ind := indicator.Combined(g, tgt, []int{s}, icfg)
				sc, err := derivation.NewScheme(g, tgt, []int{s}, trainLen)
				if err != nil {
					continue
				}
				real, err := sc.SMAPE(g.NodeValues(tgt)[trainLen:], [][]float64{fc[s]})
				if err != nil || math.IsNaN(real) {
					continue
				}
				inds = append(inds, ind)
				errs = append(errs, core.ClampErr(real))
			}
		}
		r := pearson(inds, errs)
		var mad, mi, me float64
		for i := range inds {
			mad += math.Abs(inds[i] - errs[i])
			mi += inds[i]
			me += errs[i]
		}
		n := float64(len(inds))
		t.AddRow(name, d(len(inds)), f4(r), f4(mad/n), f4(mi/n), f4(me/n))
	}
	return t, nil
}

func pearson(x, y []float64) float64 {
	n := float64(len(x))
	if n < 2 {
		return math.NaN()
	}
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Fig8bDatasets are the series of Figure 8b/8d/8e/8f.
var Fig8Datasets = []string{"tourism", "sales", "energy", "gen10k"}

// Fig8b reproduces the indicator-size experiment of Figure 8b:
// configuration error as a function of |I| (as a percentage of the graph
// size). Real data sets improve with larger indicators; the synthetic set
// stays nearly flat.
func Fig8b(scale Scale) (*Table, error) {
	fracs := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	t := &Table{
		Title: "Fig 8b: configuration error vs indicator size |I|",
		Header: append([]string{"dataset"}, func() []string {
			h := make([]string, len(fracs))
			for i, f := range fracs {
				h[i] = fmt.Sprintf("|I|=%d%%", int(f*100))
			}
			return h
		}()...),
	}
	for _, name := range Fig8Datasets {
		ds, err := LoadDataset(name, scale)
		if err != nil {
			return nil, err
		}
		g, err := ds.Graph()
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for _, frac := range fracs {
			cfg, err := core.Run(g, core.Options{Seed: Seed, IndicatorFraction: frac})
			if err != nil {
				return nil, fmt.Errorf("fig8b %s@%.1f: %w", name, frac, err)
			}
			row = append(row, f4(cfg.Error()))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig8cDelays returns the artificial model-creation delays swept in Figure
// 8c/8d; the paper sweeps 0–60 s, the quick scale 0–60 ms.
func Fig8cDelays(scale Scale) []time.Duration {
	unit := time.Millisecond
	if scale == Paper {
		unit = time.Second
	}
	return []time.Duration{0, 5 * unit, 15 * unit, 30 * unit, 60 * unit}
}

// Fig8c reproduces the candidate-selection experiment of Figure 8c: total
// configuration-creation runtime as a function of the (artificial) model
// creation time on the Sales data set. Greedy/Direct/TopDown grow linearly
// in the number of models they create; the advisor's γ control keeps its
// growth much flatter by analyzing more candidates instead of building
// more models.
func Fig8c(scale Scale) (*Table, error) {
	ds, err := LoadDataset("sales", scale)
	if err != nil {
		return nil, err
	}
	g, err := ds.Graph()
	if err != nil {
		return nil, err
	}
	delays := Fig8cDelays(scale)
	t := &Table{
		Title:  "Fig 8c: runtime vs model creation time (sales, advisor stops at alpha=0.5)",
		Header: append([]string{"approach"}, durHeader(delays)...),
	}
	for _, ap := range []string{"Greedy", "Direct", "TopDown", "Advisor"} {
		row := []string{ap}
		for _, delay := range delays {
			_, dur, err := RunApproach(ap, g,
				hierarchical.Options{CreationDelay: delay},
				core.Options{Seed: Seed, CreationDelay: delay, AlphaMax: 0.5})
			if err != nil {
				return nil, fmt.Errorf("fig8c %s@%v: %w", ap, delay, err)
			}
			row = append(row, dur.Round(time.Millisecond).String())
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig8d reproduces Figure 8d: the advisor's configuration error as a
// function of the model creation time — thanks to the indicator quality,
// analyzing more candidates (and creating fewer models) costs little to no
// accuracy.
func Fig8d(scale Scale) (*Table, error) {
	delays := Fig8cDelays(scale)
	t := &Table{
		Title:  "Fig 8d: advisor error vs model creation time",
		Header: append([]string{"dataset"}, durHeader(delays)...),
	}
	for _, name := range Fig8Datasets {
		ds, err := LoadDataset(name, scale)
		if err != nil {
			return nil, err
		}
		g, err := ds.Graph()
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for _, delay := range delays {
			cfg, err := core.Run(g, core.Options{Seed: Seed, CreationDelay: delay, AlphaMax: 0.5})
			if err != nil {
				return nil, fmt.Errorf("fig8d %s@%v: %w", name, delay, err)
			}
			row = append(row, f4(cfg.Error()))
		}
		t.AddRow(row...)
	}
	return t, nil
}

func durHeader(delays []time.Duration) []string {
	h := make([]string, len(delays))
	for i, d := range delays {
		h[i] = "t=" + d.String()
	}
	return h
}

// Alphas is the α sweep of Figures 8e/8f.
var Alphas = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// AlphaTrace records, from one advisor run over the full α schedule, the
// error and model count last observed at each α level (the way the paper
// plots "the development of the configuration forecast error with
// increasing α").
type AlphaTrace struct {
	Error  map[float64]float64
	Models map[float64]int
	Nodes  int
}

// TraceAlpha runs the advisor once with the paper's schedule (α from 0.1
// to 1.0) and captures the per-α development.
func TraceAlpha(g *cube.Graph) (*AlphaTrace, error) {
	tr := &AlphaTrace{
		Error:  make(map[float64]float64, len(Alphas)),
		Models: make(map[float64]int, len(Alphas)),
		Nodes:  g.NumNodes(),
	}
	record := func(alpha, e float64, models int) {
		key := math.Round(alpha*10) / 10
		tr.Error[key] = e
		tr.Models[key] = models
	}
	cfg, err := core.Run(g, core.Options{Seed: Seed, OnIteration: func(s core.Snapshot) {
		record(s.Alpha, s.Error, s.Models)
	}})
	if err != nil {
		return nil, err
	}
	record(1.0, cfg.Error(), cfg.NumModels())
	// Carry values forward so every α level of the sweep has a point
	// (levels the schedule skipped inherit the previous level's state).
	lastE, lastM := 1.0, 1
	for _, a := range Alphas {
		key := math.Round(a*10) / 10
		if e, ok := tr.Error[key]; ok {
			lastE, lastM = e, tr.Models[key]
		} else {
			tr.Error[key] = lastE
			tr.Models[key] = lastM
		}
	}
	return tr, nil
}

// Fig8e reproduces Figure 8e: configuration error as a function of α. The
// steepest decrease appears for small α (most beneficial models first);
// around α = 0.5 the error is close to the best achievable.
func Fig8e(scale Scale) (*Table, error) {
	t := &Table{
		Title:  "Fig 8e: configuration error vs alpha",
		Header: append([]string{"dataset"}, alphaHeader()...),
	}
	for _, name := range Fig8Datasets {
		g, err := loadGraph(name, scale)
		if err != nil {
			return nil, err
		}
		tr, err := TraceAlpha(g)
		if err != nil {
			return nil, fmt.Errorf("fig8e %s: %w", name, err)
		}
		row := []string{name}
		for _, a := range Alphas {
			row = append(row, f4(tr.Error[math.Round(a*10)/10]))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig8f reproduces Figure 8f: the relative number of models (fraction of
// graph nodes carrying a model) as a function of α — below 15% at α = 0.5
// and bounded well below 100% even at α = 1.
func Fig8f(scale Scale) (*Table, error) {
	t := &Table{
		Title:  "Fig 8f: relative number of models vs alpha",
		Header: append([]string{"dataset"}, alphaHeader()...),
	}
	for _, name := range Fig8Datasets {
		g, err := loadGraph(name, scale)
		if err != nil {
			return nil, err
		}
		tr, err := TraceAlpha(g)
		if err != nil {
			return nil, fmt.Errorf("fig8f %s: %w", name, err)
		}
		row := []string{name}
		for _, a := range Alphas {
			row = append(row, f2(float64(tr.Models[math.Round(a*10)/10])/float64(tr.Nodes)))
		}
		t.AddRow(row...)
	}
	return t, nil
}

func alphaHeader() []string {
	h := make([]string, len(Alphas))
	for i, a := range Alphas {
		h[i] = fmt.Sprintf("a=%.1f", a)
	}
	return h
}

func loadGraph(name string, scale Scale) (*cube.Graph, error) {
	ds, err := LoadDataset(name, scale)
	if err != nil {
		return nil, err
	}
	return ds.Graph()
}
