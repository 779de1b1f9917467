package datasets

import (
	"fmt"
	"math"
	"math/rand"

	"cubefc/internal/cube"
	"cubefc/internal/timeseries"
)

// CubeGenOptions parameterizes the benchmark-grade synthetic cube
// generator: number of dimensions, per-level member cardinality and the
// seasonality mix of the base series. Unlike GenX (the paper's single
// deep hierarchy), GenCube spans several dimensions, so the node count —
// the product over dimensions of (members across levels + ALL) — grows
// multiplicatively while the base count stays the product of the finest
// cardinalities; exactly the regime where on-demand materialization pays
// off.
type CubeGenOptions struct {
	// DimCards holds, per dimension, the member count per named level,
	// finest level first and strictly non-increasing (e.g. {{40, 8}, {25,
	// 5}} describes 2 dimensions with 40×25 = 1000 base series). Children
	// are distributed evenly across parents.
	DimCards [][]int
	// Length is the observations per base series (default 48).
	Length int
	// Period is the seasonal period of the seasonal component (default 12).
	Period int
}

// The seasonality mix of GenCube's base series. A seasonalShare fraction
// carries a seasonal signal; the rest are trend-plus-noise. The mix makes
// the advisor's model-placement decisions non-trivial: seasonal groups
// aggregate into cleanly seasonal nodes, mixed groups don't. A seasonal
// base blends a per-group shared signal along the first dimension into its
// own noise with weight groupShare; GenX blends its groups' signals with the
// same weight.
const (
	seasonalShare = 0.7
	groupShare    = 0.35
)

func (o CubeGenOptions) withDefaults() CubeGenOptions {
	if len(o.DimCards) == 0 {
		o.DimCards = [][]int{{20, 4}, {10, 2}}
	}
	if o.Length <= 0 {
		o.Length = 48
	}
	if o.Period <= 0 {
		o.Period = 12
	}
	return o
}

// NumBase returns the number of base series the options describe: the
// product of the finest-level cardinalities.
func (o CubeGenOptions) NumBase() int {
	o = o.withDefaults()
	n := 1
	for _, cards := range o.DimCards {
		n *= cards[0]
	}
	return n
}

// NumNodes returns the total hyper-graph node count the options describe:
// the product over dimensions of (sum of level cardinalities + 1 for ALL).
func (o CubeGenOptions) NumNodes() int {
	o = o.withDefaults()
	n := 1
	for _, cards := range o.DimCards {
		per := 1 // ALL
		for _, c := range cards {
			per += c
		}
		n *= per
	}
	return n
}

// CubeGenForNodes sizes a symmetric CubeGenOptions so the resulting graph
// holds approximately targetNodes nodes across the given number of
// dimensions (two named levels per dimension, fan-out 5). It is the
// BenchmarkAdvisorScale sizing helper: CubeGenForNodes(100_000, 2)
// describes a ~10^5-node cube.
func CubeGenForNodes(targetNodes, dims int) CubeGenOptions {
	if dims < 1 {
		dims = 1
	}
	if targetNodes < 8 {
		targetNodes = 8
	}
	// Per dimension we need (a + ceil(a/5) + 1) ≈ targetNodes^(1/dims),
	// i.e. a ≈ (targetNodes^(1/dims) - 1) / 1.2.
	per := math.Pow(float64(targetNodes), 1/float64(dims))
	a := int(math.Round((per - 1) / 1.2))
	if a < 2 {
		a = 2
	}
	cards := make([][]int, dims)
	for d := range cards {
		up := (a + 4) / 5
		if up < 1 {
			up = 1
		}
		cards[d] = []int{a, up}
	}
	return CubeGenOptions{DimCards: cards}
}

// GenCube generates a multi-dimensional synthetic cube: one hierarchy per
// DimCards entry, base series at the Cartesian product of the finest
// members, values from a seasonal SARIMA process or a trend-plus-noise
// process according to seasonalShare, with shared group structure along
// the first dimension. Generation is deterministic per seed.
func GenCube(seed int64, opts CubeGenOptions) *Dataset {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(seed))

	dims := make([]cube.Dimension, len(opts.DimCards))
	for d, cards := range opts.DimCards {
		names := make([]string, len(cards))
		for l := range cards {
			names[l] = fmt.Sprintf("d%dl%d", d, l)
		}
		member := func(level, i int) string { return fmt.Sprintf("d%dl%d_%d", d, level, i) }
		maps := make([]map[string]string, len(cards)-1)
		for l := 0; l < len(cards)-1; l++ {
			m := make(map[string]string, cards[l])
			for i := 0; i < cards[l]; i++ {
				p := i * cards[l+1] / cards[l]
				m[member(l, i)] = member(l+1, p)
			}
			maps[l] = m
		}
		dim, err := cube.NewHierarchy(fmt.Sprintf("d%d", d), names, maps)
		if err != nil {
			panic(err) // static construction cannot fail
		}
		dims[d] = dim
	}

	seasonal := &SARIMAProcess{
		AR:     []float64{0.55},
		MA:     []float64{0.2},
		SMA:    []float64{-0.4},
		SD:     1,
		Period: opts.Period,
		Sigma:  6,
		Level:  60,
	}

	// Shared signals per level-1 group of the first dimension; the group
	// of a base series follows its dim-0 member, so siblings aggregate
	// into predictable parents.
	numGroups := 1
	if len(opts.DimCards[0]) > 1 {
		numGroups = opts.DimCards[0][1]
	}
	groupSignal := make([][]float64, numGroups)
	for gid := range groupSignal {
		groupSignal[gid] = seasonal.Generate(rng, opts.Length)
	}

	nBase := opts.NumBase()
	base := make([]cube.BaseSeries, 0, nBase)
	idx := make([]int, len(opts.DimCards))
	for b := 0; b < nBase; b++ {
		members := make([]string, len(opts.DimCards))
		for d, i := range idx {
			members[d] = fmt.Sprintf("d%dl0_%d", d, i)
		}
		gid := 0
		if numGroups > 1 {
			gid = idx[0] * numGroups / opts.DimCards[0][0]
		}
		vals := make([]float64, opts.Length)
		scale := 0.5 + rng.Float64()
		if rng.Float64() < seasonalShare {
			// Seasonal base: shared group signal plus idiosyncratic noise.
			gs := groupSignal[gid]
			for t := range vals {
				vals[t] = scale * (groupShare*gs[t] +
					(1-groupShare)*(seasonal.Level+rng.NormFloat64()*2*seasonal.Sigma))
				if vals[t] < 0 {
					vals[t] = 0
				}
			}
		} else {
			// Non-seasonal base: linear trend plus white noise.
			slope := (rng.Float64() - 0.3) * 2
			for t := range vals {
				vals[t] = scale * (seasonal.Level + slope*float64(t) + rng.NormFloat64()*seasonal.Sigma)
				if vals[t] < 0 {
					vals[t] = 0
				}
			}
		}
		base = append(base, cube.BaseSeries{
			Members: members,
			Series:  timeseries.New(vals, opts.Period),
		})
		for d := len(idx) - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < opts.DimCards[d][0] {
				break
			}
			idx[d] = 0
		}
	}
	return &Dataset{
		Name:   fmt.Sprintf("gencube%d", opts.NumNodes()),
		Dims:   dims,
		Base:   base,
		Period: opts.Period,
	}
}
