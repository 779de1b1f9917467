package datasets

import (
	"fmt"
	"math"
	"math/rand"

	"cubefc/internal/cube"
	"cubefc/internal/timeseries"
)

// Dataset bundles the dimensions and base series of one evaluation data
// set, ready for cube.NewGraph.
type Dataset struct {
	Name   string
	Dims   []cube.Dimension
	Base   []cube.BaseSeries
	Period int
}

// Graph builds the time-series hyper graph of the data set.
func (d *Dataset) Graph() (*cube.Graph, error) {
	return cube.NewGraph(d.Dims, d.Base)
}

// Tourism generates the synthetic stand-in for the Australian domestic
// tourism data set: 32 base time series along two flat dimensions —
// purpose of visit (holiday, business, visiting, other) and state (8
// states) — with 32 quarterly observations (2004–2011) and quarterly
// seasonality (period 4). Sibling series share seasonal shape (purposes
// have characteristic seasons, states scale them), which is the structure
// hierarchical derivation exploits.
func Tourism(seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	purposes := []string{"holiday", "business", "visiting", "other"}
	states := []string{"NSW", "VIC", "QLD", "SA", "WA", "TAS", "NT", "ACT"}
	const n, period = 32, 4

	// Characteristic quarterly pattern per purpose (holiday peaks in Q1,
	// business flat, ...), amplitude per purpose.
	purposeSeason := map[string][]float64{
		"holiday":  {1.35, 0.85, 0.80, 1.00},
		"business": {0.95, 1.05, 1.05, 0.95},
		"visiting": {1.10, 0.90, 0.95, 1.05},
		"other":    {1.00, 1.00, 1.00, 1.00},
	}
	purposeLevel := map[string]float64{"holiday": 120, "business": 80, "visiting": 60, "other": 25}
	stateScale := make(map[string]float64, len(states))
	for i, s := range states {
		stateScale[s] = 1.6 - 0.15*float64(i) // NSW largest … ACT smallest
	}

	dims := []cube.Dimension{
		cube.NewDimension("purpose", "purpose"),
		cube.NewDimension("state", "state"),
	}
	var base []cube.BaseSeries
	for _, p := range purposes {
		for _, st := range states {
			trend := (rng.Float64() - 0.3) * 0.4 // mostly slight growth
			level := purposeLevel[p] * stateScale[st] * (0.85 + 0.3*rng.Float64())
			vals := make([]float64, n)
			for t := 0; t < n; t++ {
				season := purposeSeason[p][t%period]
				noise := 1 + rng.NormFloat64()*0.06
				v := (level + trend*float64(t)) * season * noise
				if v < 0 {
					v = 0
				}
				vals[t] = v
			}
			base = append(base, cube.BaseSeries{
				Members: []string{p, st},
				Series:  timeseries.New(vals, period),
			})
		}
	}
	return &Dataset{Name: "tourism", Dims: dims, Base: base, Period: period}
}

// Sales generates the synthetic stand-in for the market-research sales
// excerpt: 27 base series along product (9) and country (3) dimensions in
// monthly resolution 2004–2009 (72 observations, period 12). Product
// families share yearly seasonality; occasional promotion spikes add the
// base-level noise that makes higher aggregation levels easier to forecast.
func Sales(seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	products := []string{"P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9"}
	countries := []string{"DE", "FR", "UK"}
	const n, period = 72, 12

	dims := []cube.Dimension{
		cube.NewDimension("product", "product"),
		cube.NewDimension("country", "country"),
	}
	countryScale := map[string]float64{"DE": 1.4, "FR": 1.0, "UK": 0.8}
	var base []cube.BaseSeries
	for pi, p := range products {
		// Yearly pattern per product: phase-shifted sinusoid plus a
		// December uplift for consumer products.
		phase := float64(pi) * 0.7
		amp := 0.15 + 0.1*rng.Float64()
		level := 40 + 25*rng.Float64()
		trend := (rng.Float64() - 0.4) * 0.25
		for _, c := range countries {
			scale := countryScale[c] * (0.9 + 0.2*rng.Float64())
			vals := make([]float64, n)
			for t := 0; t < n; t++ {
				season := 1 + amp*math.Sin(2*math.Pi*float64(t%period)/float64(period)+phase)
				if t%period == 11 && pi%2 == 0 {
					season += 0.25 // holiday-season uplift
				}
				noise := 1 + rng.NormFloat64()*0.08
				v := (level + trend*float64(t)) * scale * season * noise
				if rng.Float64() < 0.03 {
					v *= 1.5 // promotion spike
				}
				if v < 0 {
					v = 0
				}
				vals[t] = v
			}
			base = append(base, cube.BaseSeries{
				Members: []string{p, c},
				Series:  timeseries.New(vals, period),
			})
		}
	}
	return &Dataset{Name: "sales", Dims: dims, Base: base, Period: period}
}

// EnergyOptions sizes the Energy generator; the zero value matches the
// paper (86 customers, ~8 months of hourly data).
type EnergyOptions struct {
	Customers int // default 86
	Days      int // default 240 (Nov 2009 – Jun 2010)
}

// Energy generates the synthetic stand-in for the EnBW MeRegio energy-
// demand data set: hourly consumption of 86 customers grouped into
// districts (a customer → district functional dependency), daily
// seasonality (period 24) and strongly noisy base-level series — the
// property that makes all classical approaches perform alike on this set
// (Figure 7c).
func Energy(seed int64, opts EnergyOptions) *Dataset {
	if opts.Customers <= 0 {
		opts.Customers = 86
	}
	if opts.Days <= 0 {
		opts.Days = 240
	}
	rng := rand.New(rand.NewSource(seed))
	const period = 24
	n := opts.Days * period

	// Group customers into districts of ~10.
	numDistricts := (opts.Customers + 9) / 10
	parents := make(map[string]string, opts.Customers)
	customers := make([]string, opts.Customers)
	for i := range customers {
		customers[i] = fmt.Sprintf("cust%02d", i+1)
		parents[customers[i]] = fmt.Sprintf("district%d", i%numDistricts+1)
	}
	dim, err := cube.NewHierarchy("customer", []string{"customer", "district"}, []map[string]string{parents})
	if err != nil {
		panic(err) // static construction cannot fail
	}

	// Shared daily load shape: night valley, morning and evening peaks.
	shape := make([]float64, period)
	for h := 0; h < period; h++ {
		shape[h] = 0.6 +
			0.5*math.Exp(-squared(float64(h)-8)/8) +
			0.8*math.Exp(-squared(float64(h)-19)/10)
	}

	var base []cube.BaseSeries
	for i := range customers {
		level := 1.5 + 3*rng.Float64()
		noiseAmp := 0.35 + 0.25*rng.Float64() // strongly noisy base data
		weekendDip := 0.75 + 0.2*rng.Float64()
		vals := make([]float64, n)
		for t := 0; t < n; t++ {
			day := t / period
			hour := t % period
			v := level * shape[hour]
			if day%7 >= 5 {
				v *= weekendDip
			}
			v *= 1 + rng.NormFloat64()*noiseAmp
			if rng.Float64() < 0.01 {
				v += level * 2 // appliance burst
			}
			if v < 0 {
				v = 0
			}
			vals[t] = v
		}
		base = append(base, cube.BaseSeries{
			Members: []string{customers[i]},
			Series:  timeseries.New(vals, period),
		})
	}
	return &Dataset{Name: "energy", Dims: []cube.Dimension{dim}, Base: base, Period: period}
}

func squared(x float64) float64 { return x * x }

// GenLevels implements the level rule of Section VI-A: "three levels if
// X < 1,000, four levels for 1,000 <= X < 10,000, five levels for
// 10,000 <= X < 100,000 and six levels for X >= 100,000".
func GenLevels(x int) int {
	switch {
	case x < 1_000:
		return 3
	case x < 10_000:
		return 4
	case x < 100_000:
		return 5
	default:
		return 6
	}
}

// GenX generates the synthetic data set of the paper: x base time series
// of 48 observations from a SARIMA process of period 12, summed up a
// hierarchy whose depth follows GenLevels. The hierarchy is a single
// dimension with GenLevels(x)-1 named levels plus ALL, children distributed
// evenly across parents. Each base series blends a per-parent-group SARIMA
// component (weight groupShare) into its own noise: siblings under the same
// level-1 parent share a common signal, as aggregates of real processes do,
// which is what derivation schemes exploit.
func GenX(seed int64, x int) *Dataset {
	const length, period = 48, 12
	if x < 1 {
		x = 1
	}
	rng := rand.New(rand.NewSource(seed))
	levels := GenLevels(x)
	named := levels - 1 // named hierarchy levels; top of the graph is ALL

	// Member counts per named level: geometric decay so that the last
	// named level has about f members with f = x^(1/(levels-1)).
	counts := make([]int, named)
	counts[0] = x
	f := math.Pow(float64(x), 1/float64(levels-1))
	for l := 1; l < named; l++ {
		c := int(math.Round(float64(counts[l-1]) / f))
		if c < 1 {
			c = 1
		}
		if c >= counts[l-1] {
			c = counts[l-1]
		}
		counts[l] = c
	}

	levelNames := make([]string, named)
	for l := range levelNames {
		levelNames[l] = fmt.Sprintf("l%d", l)
	}
	memberName := func(level, i int) string { return fmt.Sprintf("l%d_%d", level, i) }
	parentMaps := make([]map[string]string, named-1)
	for l := 0; l < named-1; l++ {
		m := make(map[string]string, counts[l])
		for i := 0; i < counts[l]; i++ {
			// Distribute children evenly across the parents.
			p := i * counts[l+1] / counts[l]
			m[memberName(l, i)] = memberName(l+1, p)
		}
		parentMaps[l] = m
	}
	dim, err := cube.NewHierarchy("gen", levelNames, parentMaps)
	if err != nil {
		panic(err) // static construction cannot fail
	}

	proc := &SARIMAProcess{
		AR:     []float64{0.55},
		MA:     []float64{0.2},
		SMA:    []float64{-0.4},
		SD:     1,
		Period: period,
		Sigma:  6,
		Level:  60,
	}
	// One shared SARIMA signal per level-1 parent group.
	numGroups := 1
	if named > 1 {
		numGroups = counts[1]
	}
	groupSignal := make([][]float64, numGroups)
	for gid := range groupSignal {
		groupSignal[gid] = proc.Generate(rng, length)
	}
	groupOf := func(i int) int {
		if named > 1 {
			return i * counts[1] / counts[0]
		}
		return 0
	}

	base := make([]cube.BaseSeries, x)
	for i := 0; i < x; i++ {
		// Shared group structure plus unforecastable idiosyncratic white
		// noise: the regime in which derivation schemes pay off (a base
		// node's own model can only chase the noise).
		gs := groupSignal[groupOf(i)]
		scale := 0.5 + rng.Float64()
		vals := make([]float64, length)
		for t := range vals {
			vals[t] = scale * (groupShare*gs[t] + (1-groupShare)*(proc.Level+rng.NormFloat64()*3*proc.Sigma))
			if vals[t] < 0 {
				vals[t] = 0
			}
		}
		base[i] = cube.BaseSeries{
			Members: []string{memberName(0, i)},
			Series:  timeseries.New(vals, period),
		}
	}
	return &Dataset{Name: fmt.Sprintf("gen%d", x), Dims: []cube.Dimension{dim}, Base: base, Period: period}
}
