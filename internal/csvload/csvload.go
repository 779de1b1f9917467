// Package csvload reads multi-dimensional fact tables from CSV into the
// cube data model, so external data sets can be advised and queried. The
// expected layout is one observation per row:
//
//	time,<level columns...>,value
//	0,P1,C1,R1,12.5
//
// The time column orders observations (integer indexes or lexicographically
// sortable strings). Dimension columns are declared with a spec string such
// as
//
//	"product;location=city<region"
//
// — dimensions separated by ';', an optional dimension name before '=',
// hierarchy levels finest-first separated by '<'. Each level names a CSV
// column; functional dependencies (city → region) are derived from the
// data and validated for consistency.
package csvload

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"cubefc/internal/cube"
	"cubefc/internal/timeseries"
)

// DimSpec describes one dimension to extract from the CSV.
type DimSpec struct {
	Name   string
	Levels []string // finest first; each names a CSV column
}

// ParseSpec parses a dimension spec string (see the package comment).
func ParseSpec(spec string) ([]DimSpec, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("csvload: empty dimension spec")
	}
	var out []DimSpec
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name := part
		levels := part
		if eq := strings.IndexByte(part, '='); eq >= 0 {
			name = strings.TrimSpace(part[:eq])
			levels = part[eq+1:]
		}
		var lv []string
		for _, l := range strings.Split(levels, "<") {
			l = strings.TrimSpace(l)
			if l == "" {
				return nil, fmt.Errorf("csvload: empty level in dimension spec %q", part)
			}
			lv = append(lv, l)
		}
		if eq := strings.IndexByte(part, '='); eq < 0 {
			name = lv[0]
		}
		out = append(out, DimSpec{Name: name, Levels: lv})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("csvload: no dimensions in spec %q", spec)
	}
	return out, nil
}

// Options tunes Load.
type Options struct {
	// TimeColumn names the time column (default "time").
	TimeColumn string
	// ValueColumn names the measure column (default "value").
	ValueColumn string
	// Period is the seasonal period assigned to the series (default 1).
	Period int
	// FillMissing inserts zeros for combinations missing at some time
	// stamps instead of failing.
	FillMissing bool
}

// Load reads the CSV fact table and assembles dimensions (with
// data-derived functional dependencies) and aligned base series.
func Load(r io.Reader, specs []DimSpec, opts Options) ([]cube.Dimension, []cube.BaseSeries, error) {
	if opts.TimeColumn == "" {
		opts.TimeColumn = "time"
	}
	if opts.ValueColumn == "" {
		opts.ValueColumn = "value"
	}
	if opts.Period < 1 {
		opts.Period = 1
	}

	cr := csv.NewReader(r)
	cr.ReuseRecord = false
	header, err := cr.Read()
	if err != nil {
		return nil, nil, fmt.Errorf("csvload: reading header: %w", err)
	}
	colIdx := make(map[string]int, len(header))
	for i, h := range header {
		colIdx[strings.TrimSpace(h)] = i
	}
	timeCol, ok := colIdx[opts.TimeColumn]
	if !ok {
		return nil, nil, fmt.Errorf("csvload: missing time column %q", opts.TimeColumn)
	}
	valueCol, ok := colIdx[opts.ValueColumn]
	if !ok {
		return nil, nil, fmt.Errorf("csvload: missing value column %q", opts.ValueColumn)
	}
	type levelRef struct{ dim, level, col int }
	var refs []levelRef
	for d, spec := range specs {
		for l, name := range spec.Levels {
			c, ok := colIdx[name]
			if !ok {
				return nil, nil, fmt.Errorf("csvload: missing level column %q of dimension %q", name, spec.Name)
			}
			refs = append(refs, levelRef{dim: d, level: l, col: c})
		}
	}

	// parents[d][l] maps level-l members to their level-(l+1) parents.
	parents := make([][]map[string]string, len(specs))
	for d, spec := range specs {
		parents[d] = make([]map[string]string, len(spec.Levels)-1)
		for l := range parents[d] {
			parents[d][l] = make(map[string]string)
		}
	}

	type obs struct {
		timeKey string
		value   float64
	}
	series := make(map[string][]obs) // base member key -> observations
	memberOf := make(map[string][]string)
	timeKeys := make(map[string]bool)
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, nil, fmt.Errorf("csvload: line %d: %w", line, err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rec[valueCol]), 64)
		if err != nil {
			return nil, nil, fmt.Errorf("csvload: line %d: bad value %q", line, rec[valueCol])
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("csvload: line %d: value %q is not finite", line, rec[valueCol])
		}
		// Register functional dependencies and validate consistency.
		for _, ref := range refs {
			if ref.level == 0 {
				continue
			}
			childCol := 0
			for _, r2 := range refs {
				if r2.dim == ref.dim && r2.level == ref.level-1 {
					childCol = r2.col
				}
			}
			child := strings.TrimSpace(rec[childCol])
			parent := strings.TrimSpace(rec[ref.col])
			m := parents[ref.dim][ref.level-1]
			if prev, ok := m[child]; ok && prev != parent {
				return nil, nil, fmt.Errorf("csvload: line %d: inconsistent hierarchy: %q maps to both %q and %q",
					line, child, prev, parent)
			}
			m[child] = parent
		}
		members := make([]string, len(specs))
		for d, spec := range specs {
			members[d] = strings.TrimSpace(rec[colIdx[spec.Levels[0]]])
		}
		key := strings.Join(members, "\x00")
		tk := strings.TrimSpace(rec[timeCol])
		series[key] = append(series[key], obs{timeKey: tk, value: v})
		memberOf[key] = members
		timeKeys[tk] = true
	}
	if len(series) == 0 {
		return nil, nil, fmt.Errorf("csvload: no data rows")
	}

	// Order time keys: numerically when every key parses as a number,
	// lexicographically otherwise.
	keys := make([]string, 0, len(timeKeys))
	for k := range timeKeys {
		keys = append(keys, k)
	}
	numeric := true
	for _, k := range keys {
		if _, err := strconv.ParseFloat(k, 64); err != nil {
			numeric = false
			break
		}
	}
	if numeric {
		sort.Slice(keys, func(i, j int) bool {
			a, _ := strconv.ParseFloat(keys[i], 64)
			b, _ := strconv.ParseFloat(keys[j], 64)
			return a < b
		})
	} else {
		sort.Strings(keys)
	}
	timePos := make(map[string]int, len(keys))
	for i, k := range keys {
		timePos[k] = i
	}

	// Assemble dimensions.
	dims := make([]cube.Dimension, len(specs))
	for d, spec := range specs {
		if len(spec.Levels) == 1 {
			dims[d] = cube.NewDimension(spec.Name, spec.Levels[0])
			continue
		}
		dim, err := cube.NewHierarchy(spec.Name, spec.Levels, parents[d])
		if err != nil {
			return nil, nil, err
		}
		dims[d] = dim
	}

	// Assemble aligned base series.
	baseKeys := make([]string, 0, len(series))
	for k := range series {
		baseKeys = append(baseKeys, k)
	}
	sort.Strings(baseKeys)
	base := make([]cube.BaseSeries, 0, len(series))
	for _, key := range baseKeys {
		vals := make([]float64, len(keys))
		seen := make([]bool, len(keys))
		for _, o := range series[key] {
			pos := timePos[o.timeKey]
			if seen[pos] {
				return nil, nil, fmt.Errorf("csvload: duplicate observation for %v at time %q",
					memberOf[key], o.timeKey)
			}
			seen[pos] = true
			vals[pos] = o.value
		}
		if !opts.FillMissing {
			for i, s := range seen {
				if !s {
					return nil, nil, fmt.Errorf("csvload: series %v misses time %q (use FillMissing to zero-fill)",
						memberOf[key], keys[i])
				}
			}
		}
		base = append(base, cube.BaseSeries{
			Members: memberOf[key],
			Series:  timeseries.New(vals, opts.Period),
		})
	}
	return dims, base, nil
}
