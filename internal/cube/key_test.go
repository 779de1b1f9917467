package cube

import (
	"fmt"
	"strings"
)

// The tests' inverses and views of the graph that nothing else needs.

// ParseKey parses a key produced by Coord.Key back into a coordinate.
func ParseKey(key string, dims []Dimension) (Coord, error) {
	parts := strings.Split(key, "|")
	if len(parts) != len(dims) {
		return nil, fmt.Errorf("cube: key %q has %d parts, want %d", key, len(parts), len(dims))
	}
	coord := make(Coord, len(dims))
	for i, p := range parts {
		if p == "*" {
			coord[i] = Cell{Level: dims[i].AllLevel()}
			continue
		}
		eq := strings.IndexByte(p, '=')
		if eq < 0 {
			return nil, fmt.Errorf("cube: malformed key part %q", p)
		}
		lvl := dims[i].LevelIndex(p[:eq])
		if lvl < 0 || lvl >= dims[i].AllLevel() {
			return nil, fmt.Errorf("cube: unknown level %q in dimension %q", p[:eq], dims[i].Name)
		}
		coord[i] = Cell{Level: lvl, Value: p[eq+1:]}
	}
	return coord, nil
}

// Neighbors returns the undirected adjacency of a node: all one-step
// roll-ups (parents) and one-step drill-downs (children across every
// aggregated dimension), read from the skeleton — neighbor discovery must
// not force series aggregation.
func (g *Graph) Neighbors(id int) []int {
	var out []int
	for _, p := range g.ParentsOf(id) {
		if p >= 0 {
			out = append(out, p)
		}
	}
	return append(out, g.childrenOf(id)...)
}
