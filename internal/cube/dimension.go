// Package cube implements the multi-dimensional data model of Section II-A
// of the paper: categorical dimensions with functional-dependency
// hierarchies (e.g. city → region), base time series identified by one
// value per dimension, SUM aggregation, and the directed time-series hyper
// graph containing every aggregation possibility of the data instance.
package cube

import "fmt"

// Dimension describes one categorical dimension together with its
// functional-dependency hierarchy. Levels are ordered finest first, e.g.
// a location dimension with a city → region dependency has
// Levels = ["city", "region"]. The implicit top of every dimension is the
// ALL level (aggregation over the entire dimension), which is not listed
// in Levels.
type Dimension struct {
	Name string
	// Levels holds the attribute names from finest to coarsest.
	Levels []string
	// Parents[i] maps a member value at level i to its parent value at
	// level i+1 (the functional dependency); len(Parents) = len(Levels)-1.
	Parents []map[string]string
}

// NewDimension returns a flat dimension (single level, no hierarchy).
func NewDimension(name, level string) Dimension {
	return Dimension{Name: name, Levels: []string{level}}
}

// NewHierarchy returns a dimension with the given levels (finest first) and
// parent maps between consecutive levels.
func NewHierarchy(name string, levels []string, parents []map[string]string) (Dimension, error) {
	if len(levels) == 0 {
		return Dimension{}, fmt.Errorf("cube: dimension %q needs at least one level", name)
	}
	if len(parents) != len(levels)-1 {
		return Dimension{}, fmt.Errorf("cube: dimension %q has %d levels but %d parent maps, want %d",
			name, len(levels), len(parents), len(levels)-1)
	}
	return Dimension{Name: name, Levels: levels, Parents: parents}, nil
}

// AllLevel returns the level index representing ALL (*) for this dimension.
func (d *Dimension) AllLevel() int { return len(d.Levels) }

// LevelIndex returns the index of the named level, or -1 if unknown. The
// name "*" or "" resolves to the ALL level.
func (d *Dimension) LevelIndex(name string) int {
	if name == "*" || name == "" {
		return d.AllLevel()
	}
	for i, l := range d.Levels {
		if l == name {
			return i
		}
	}
	return -1
}

// Ancestor maps a member value at fromLevel to its ancestor value at
// toLevel (toLevel >= fromLevel). At the ALL level the ancestor value is
// the empty string. It returns an error if a parent mapping is missing,
// including a level without a parent map.
func (d *Dimension) Ancestor(value string, fromLevel, toLevel int) (string, error) {
	if toLevel < fromLevel {
		return "", fmt.Errorf("cube: cannot map value %q down from level %d to %d in dimension %q",
			value, fromLevel, toLevel, d.Name)
	}
	if toLevel >= d.AllLevel() {
		return "", nil
	}
	v := value
	for l := fromLevel; l < toLevel; l++ {
		if l < 0 || l >= len(d.Parents) {
			return "", fmt.Errorf("cube: dimension %q has no parent map at level %d", d.Name, l)
		}
		p, ok := d.Parents[l][v]
		if !ok {
			return "", fmt.Errorf("cube: dimension %q has no parent for value %q at level %q",
				d.Name, v, d.Levels[l])
		}
		v = p
	}
	return v, nil
}

// Cell is one coordinate of a hyper-graph node: a level of a dimension and
// a member value at that level. At the ALL level Value is empty.
type Cell struct {
	Level int
	Value string
}

// IsAll reports whether the cell is at the ALL level of dimension d.
func (c Cell) IsAll(d *Dimension) bool { return c.Level >= d.AllLevel() }

// Coord is a full node coordinate, one Cell per dimension.
type Coord []Cell

// Key renders a canonical string key for the coordinate, used for node
// lookup and configuration storage.
func (c Coord) Key(dims []Dimension) string {
	var buf [64]byte
	return string(c.AppendKey(buf[:0], dims))
}

// AppendKey appends the canonical key of the coordinate to dst and returns
// the extended slice — Key without the string, for callers that only look
// the key up (Graph.LookupCoord) and reuse one buffer across lookups.
func (c Coord) AppendKey(dst []byte, dims []Dimension) []byte {
	for i, cell := range c {
		if i > 0 {
			dst = append(dst, '|')
		}
		if cell.Level >= dims[i].AllLevel() {
			dst = append(dst, '*')
		} else {
			dst = append(dst, dims[i].Levels[cell.Level]...)
			dst = append(dst, '=')
			dst = append(dst, cell.Value...)
		}
	}
	return dst
}
