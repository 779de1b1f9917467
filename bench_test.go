package cubefc_test

// Benchmark harness: one benchmark per figure of the paper's evaluation
// (Section VI), each regenerating the corresponding experiment on the
// quick-scale data sets, plus micro-benchmarks for the engine hot paths.
// The full-size figures (paper-scale sweeps) are produced by
// cmd/experiments -scale paper; these benchmarks keep every iteration in
// the seconds range so `go test -bench=.` stays tractable.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"cubefc"
	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/datasets"
	"cubefc/internal/experiments"
	"cubefc/internal/f2db"
	"cubefc/internal/forecast"
	"cubefc/internal/hierarchical"
	"cubefc/internal/indicator"
	"cubefc/internal/timeseries"
	"cubefc/internal/workload"
)

// --- Figure 7: accuracy analysis -----------------------------------------

func benchFig7(b *testing.B, dataset string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig7(dataset, experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		_ = tab
	}
}

func BenchmarkFig7aTourism(b *testing.B) { benchFig7(b, "tourism") }
func BenchmarkFig7bSales(b *testing.B)   { benchFig7(b, "sales") }
func BenchmarkFig7cEnergy(b *testing.B)  { benchFig7(b, "energy") }
func BenchmarkFig7dGen(b *testing.B)     { benchFig7(b, "gen10k") }

// --- Figure 8: parameter analysis ----------------------------------------

func BenchmarkFig8aIndicatorCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8a(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8bIndicatorSize sweeps |I| on the Sales data set (the full
// four-data-set sweep is cmd/experiments -fig 8b).
func BenchmarkFig8bIndicatorSize(b *testing.B) {
	ds, err := experiments.LoadDataset("sales", experiments.Quick)
	if err != nil {
		b.Fatal(err)
	}
	g, err := ds.Graph()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, frac := range []float64{0.2, 0.6, 1.0} {
			if _, err := core.Run(g, core.Options{Seed: 42, IndicatorFraction: frac}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig8cGammaControl measures advisor runtime under an artificial
// per-model creation delay — the γ-control experiment.
func BenchmarkFig8cGammaControl(b *testing.B) {
	ds, err := experiments.LoadDataset("sales", experiments.Quick)
	if err != nil {
		b.Fatal(err)
	}
	g, err := ds.Graph()
	if err != nil {
		b.Fatal(err)
	}
	for _, delay := range []time.Duration{0, 10 * time.Millisecond} {
		b.Run(fmt.Sprintf("delay=%v", delay), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(g, core.Options{Seed: 42, CreationDelay: delay}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8dErrorUnderDelay runs the error-vs-delay experiment point.
func BenchmarkFig8dErrorUnderDelay(b *testing.B) {
	ds, err := experiments.LoadDataset("tourism", experiments.Quick)
	if err != nil {
		b.Fatal(err)
	}
	g, err := ds.Graph()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(g, core.Options{Seed: 42, CreationDelay: 5 * time.Millisecond}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8eAlphaSweep runs pinned-α advisor points (error vs α).
func BenchmarkFig8eAlphaSweep(b *testing.B) {
	ds, err := experiments.LoadDataset("tourism", experiments.Quick)
	if err != nil {
		b.Fatal(err)
	}
	g, err := ds.Graph()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TraceAlpha(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8fModelFraction measures the relative model count at α=0.5
// (the <15% point of Figure 8f).
func BenchmarkFig8fModelFraction(b *testing.B) {
	ds, err := experiments.LoadDataset("sales", experiments.Quick)
	if err != nil {
		b.Fatal(err)
	}
	g, err := ds.Graph()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg, err := core.Run(g, core.Options{Seed: 42, AlphaMax: 0.5})
		if err != nil {
			b.Fatal(err)
		}
		if frac := float64(cfg.NumModels()) / float64(g.NumNodes()); frac > 0.5 {
			b.Fatalf("α=0.5 model fraction %v unexpectedly high", frac)
		}
	}
}

// --- Figure 9: runtime analysis ------------------------------------------

// BenchmarkFig9aScalability measures configuration-creation time per
// approach on a growing GenX (scaled down; the paper's 1k–100k sweep is
// cmd/experiments -fig 9a -scale paper).
func BenchmarkFig9aScalability(b *testing.B) {
	for _, x := range []int{200, 1000} {
		ds := datasets.GenX(42, x)
		g, err := ds.Graph()
		if err != nil {
			b.Fatal(err)
		}
		for _, ap := range []string{"TopDown", "BottomUp", "Advisor"} {
			b.Run(fmt.Sprintf("%s/x=%d", ap, x), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, _, err := experiments.RunApproach(ap, g, hierarchical.Options{},
						core.Options{Seed: 42, AlphaMax: 0.5})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig9bQueryInsert measures the average forecast-query cost under
// interleaved inserts for two query/insert ratios.
func BenchmarkFig9bQueryInsert(b *testing.B) {
	for _, ratio := range []int{1, 10} {
		b.Run(fmt.Sprintf("ratio=%d", ratio), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ds := datasets.GenX(42, 300)
				g, err := ds.Graph()
				if err != nil {
					b.Fatal(err)
				}
				cfg, err := core.Run(g, core.Options{Seed: 42, AlphaMax: 0.5})
				if err != nil {
					b.Fatal(err)
				}
				db, err := f2db.Open(g, cfg, f2db.Options{Strategy: f2db.TimeBased{Every: 4}})
				if err != nil {
					b.Fatal(err)
				}
				gen := workload.New(g, 42)
				b.StartTimer()
				res, err := workload.Run(db, gen, workload.Options{TimePoints: 5, QueriesPerInsert: ratio})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.AvgQueryTime.Nanoseconds()), "ns/query")
			}
		})
	}
}

// --- Ablation benches (DESIGN.md §6) --------------------------------------

func benchAblation(b *testing.B, opts core.Options) {
	ds, err := experiments.LoadDataset("sales", experiments.Quick)
	if err != nil {
		b.Fatal(err)
	}
	g, err := ds.Graph()
	if err != nil {
		b.Fatal(err)
	}
	opts.Seed = 42
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg, err := core.Run(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cfg.Error(), "smape")
		b.ReportMetric(float64(cfg.NumModels()), "models")
	}
}

func BenchmarkAblationFull(b *testing.B) { benchAblation(b, core.Options{}) }
func BenchmarkAblationNoStabilityIndicator(b *testing.B) {
	benchAblation(b, core.Options{Indicator: indicator.Config{StabilityWeight: -1}})
}
func BenchmarkAblationFixedGamma(b *testing.B) {
	benchAblation(b, core.Options{FixedGamma: true, Gamma0: 1})
}
func BenchmarkAblationNoMultiSource(b *testing.B) {
	benchAblation(b, core.Options{MultiSourceProbes: -1})
}
func BenchmarkAblationNoDeletion(b *testing.B) {
	benchAblation(b, core.Options{DisableDeletion: true})
}

// --- Micro-benchmarks ------------------------------------------------------

func BenchmarkGraphBuild(b *testing.B) {
	ds := datasets.GenX(42, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.Graph(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHoltWintersFit(b *testing.B) {
	ds := datasets.Sales(42)
	s := ds.Base[0].Series
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := forecast.NewHoltWinters(12, forecast.Additive)
		if err := m.Fit(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndicatorLocal(b *testing.B) {
	ds := datasets.Tourism(42)
	g, err := ds.Graph()
	if err != nil {
		b.Fatal(err)
	}
	targets := g.ClosestNodes(new(cube.BFSScratch), g.TopID, 44)
	cfg := indicator.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		indicator.ComputeLocal(g, g.TopID, targets, cfg)
	}
}

func BenchmarkForecastQuery(b *testing.B) {
	g := buildCube(b, 5)
	cfg, err := cubefc.Advise(g, cubefc.AdvisorOptions{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	db, err := cubefc.OpenDB(g, cfg, cubefc.DBOptions{})
	if err != nil {
		b.Fatal(err)
	}
	const q = "SELECT time, SUM(x) FROM facts WHERE region = 'R1' GROUP BY time AS OF now() + '1 step'"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForecastNodeDirect(b *testing.B) {
	g := buildCube(b, 6)
	cfg, err := cubefc.Advise(g, cubefc.AdvisorOptions{Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	db, err := cubefc.OpenDB(g, cfg, cubefc.DBOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.ForecastNode(0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertBatch(b *testing.B) {
	ds := datasets.GenX(42, 200)
	g, err := ds.Graph()
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := core.Run(g, core.Options{Seed: 42, AlphaMax: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	db, err := f2db.Open(g, cfg, f2db.Options{})
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.New(g, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := gen.NextBatch()
		for _, id := range g.BaseIDs {
			if err := db.InsertBase(id, batch[id]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSMAPE(b *testing.B) {
	actual := make([]float64, 1000)
	fc := make([]float64, 1000)
	for i := range actual {
		actual[i] = float64(i + 1)
		fc[i] = float64(i + 2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timeseries.SMAPE(actual, fc)
	}
}

func BenchmarkCSVLoad(b *testing.B) {
	// Render the sales data set as CSV once, then benchmark loading it.
	ds := datasets.Sales(42)
	var sb strings.Builder
	sb.WriteString("time,product,country,value\n")
	for _, bs := range ds.Base {
		for t, v := range bs.Series.Values {
			fmt.Fprintf(&sb, "%d,%s,%s,%g\n", t, bs.Members[0], bs.Members[1], v)
		}
	}
	data := sb.String()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := cubefc.LoadCSV(strings.NewReader(data), "product;country", cubefc.CSVOptions{Period: 12})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDatabaseSnapshot(b *testing.B) {
	g := buildCube(b, 7)
	cfg, err := cubefc.Advise(g, cubefc.AdvisorOptions{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	db, err := cubefc.OpenDB(g, cfg, cubefc.DBOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := cubefc.SaveDatabase(&buf, db); err != nil {
			b.Fatal(err)
		}
		if _, err := cubefc.LoadDatabase(&buf, cubefc.DBOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDrillDownQuery(b *testing.B) {
	g := buildCube(b, 8)
	cfg, err := cubefc.Advise(g, cubefc.AdvisorOptions{Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	db, err := cubefc.OpenDB(g, cfg, cubefc.DBOptions{})
	if err != nil {
		b.Fatal(err)
	}
	const q = "SELECT time, city, SUM(x) FROM facts WHERE product = 'P1' GROUP BY time, city AS OF now() + '2 steps' WITH INTERVAL 95"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}
