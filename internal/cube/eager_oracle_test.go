package cube

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"cubefc/internal/timeseries"
)

// EagerOracle is the hyper graph as NewGraph built it before the skeleton
// became the only representation: every node — series, parent links, child
// hyper edges — built up front through a string-keyed index, aggregates
// accumulated base by base in input order, Advance by walking memoized
// ancestor closures. It shares no code with Graph and is kept as the
// reference the twin tests compare Graph against. Its names are exported
// so the external test package reaches it too.
type EagerOracle struct {
	Dims    []Dimension
	TopID   int
	BaseIDs []int
	Period  int
	Length  int
	Nodes   []*Node

	index      map[string]int
	coverCache map[int][]int
}

// NewEagerOracle is the eager constructor, moved here verbatim apart from
// the receiver type. Duplicate base coordinates are summed into one node,
// which Graph rejects; the twin tests never feed it any.
func NewEagerOracle(dims []Dimension, base []BaseSeries) (*EagerOracle, error) {
	if len(base) == 0 {
		return nil, fmt.Errorf("cube: graph requires at least one base series")
	}
	length := base[0].Series.Len()
	period := base[0].Series.Period
	for i, b := range base {
		if len(b.Members) != len(dims) {
			return nil, fmt.Errorf("cube: base series %d has %d members, want %d", i, len(b.Members), len(dims))
		}
		if b.Series.Len() != length {
			return nil, fmt.Errorf("cube: base series %d has length %d, want %d", i, b.Series.Len(), length)
		}
	}

	g := &EagerOracle{Dims: dims, Period: period, Length: length, index: make(map[string]int)}
	var all []*Node

	// ancestorCoords enumerates every coordinate covering a base entry:
	// the Cartesian product over dimensions of all ancestor cells.
	perDim := make([][]Cell, len(dims))
	getNode := func(coord Coord) (*Node, error) {
		key := coord.Key(dims)
		if id, ok := g.index[key]; ok {
			return all[id], nil
		}
		depth := 0
		isBase := true
		for _, c := range coord {
			depth += c.Level
			if c.Level != 0 {
				isBase = false
			}
		}
		n := &Node{
			ID:         len(all),
			Coord:      append(Coord(nil), coord...),
			Series:     timeseries.New(make([]float64, length), period),
			ChildEdges: make([][]int, len(dims)),
			ParentIDs:  make([]int, len(dims)),
			IsBase:     isBase,
			Depth:      depth,
		}
		for i := range n.ParentIDs {
			n.ParentIDs[i] = -1
		}
		all = append(all, n)
		g.index[key] = n.ID
		return n, nil
	}

	coord := make(Coord, len(dims))
	var enumerate func(d int, visit func(Coord) error) error
	enumerate = func(d int, visit func(Coord) error) error {
		if d == len(dims) {
			return visit(coord)
		}
		for _, cell := range perDim[d] {
			coord[d] = cell
			if err := enumerate(d+1, visit); err != nil {
				return err
			}
		}
		return nil
	}

	for _, b := range base {
		// Compute the ancestor chain per dimension for this base entry.
		for d := range dims {
			dim := &dims[d]
			cells := make([]Cell, 0, dim.AllLevel()+1)
			for lvl := 0; lvl <= dim.AllLevel(); lvl++ {
				v, err := dim.Ancestor(b.Members[d], 0, lvl)
				if err != nil {
					return nil, err
				}
				cells = append(cells, Cell{Level: lvl, Value: v})
			}
			perDim[d] = cells
		}
		bs := b.Series
		err := enumerate(0, func(c Coord) error {
			n, err := getNode(c)
			if err != nil {
				return err
			}
			for t, v := range bs.Values {
				n.Series.Values[t] += v
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	// Wire parent/child hyper edges: roll each node up one level per
	// dimension and register it under that parent.
	for _, n := range all {
		if n.IsBase {
			g.BaseIDs = append(g.BaseIDs, n.ID)
		}
		for d := range dims {
			dim := &dims[d]
			cell := n.Coord[d]
			if cell.IsAll(dim) {
				continue
			}
			pv, err := dim.Ancestor(cell.Value, cell.Level, cell.Level+1)
			if err != nil {
				return nil, err
			}
			pc := append(Coord(nil), n.Coord...)
			pc[d] = Cell{Level: cell.Level + 1, Value: pv}
			pid, ok := g.index[pc.Key(dims)]
			if !ok {
				return nil, fmt.Errorf("cube: internal error: missing parent node %s", pc.Key(dims))
			}
			n.ParentIDs[d] = pid
			parent := all[pid]
			parent.ChildEdges[d] = append(parent.ChildEdges[d], n.ID)
		}
	}

	// Keep edges and base IDs in deterministic order.
	sort.Ints(g.BaseIDs)
	for _, n := range all {
		for d := range n.ChildEdges {
			sort.Ints(n.ChildEdges[d])
		}
	}

	top := make(Coord, len(dims))
	for d := range dims {
		top[d] = Cell{Level: dims[d].AllLevel()}
	}
	tid, ok := g.index[top.Key(dims)]
	if !ok {
		return nil, fmt.Errorf("cube: internal error: missing top node")
	}
	g.TopID = tid
	g.Nodes = all
	return g, nil
}

// Neighbors is the adjacency read off the nodes: parents by dimension, then
// child edges by dimension.
func (g *EagerOracle) Neighbors(id int) []int {
	n := g.Nodes[id]
	var out []int
	for _, p := range n.ParentIDs {
		if p >= 0 {
			out = append(out, p)
		}
	}
	for _, edge := range n.ChildEdges {
		out = append(out, edge...)
	}
	return out
}

// Advance is the eager Advance: zero-extend every node, then add the base
// contributions to all covering nodes in ascending base-ID order. (It
// extends before it validates the IDs — the defect TestAdvanceValidation
// pins as fixed on Graph; the twin tests feed it valid batches only.)
func (g *EagerOracle) Advance(values map[int]float64) error {
	if len(values) != len(g.BaseIDs) {
		return fmt.Errorf("cube: Advance needs a value for all %d base series, got %d", len(g.BaseIDs), len(values))
	}
	for _, n := range g.Nodes {
		n.Series.Values = append(n.Series.Values, 0)
	}
	bids := make([]int, 0, len(values))
	for bid := range values {
		if bid < 0 || bid >= len(g.Nodes) || !g.Nodes[bid].IsBase {
			return fmt.Errorf("cube: Advance: %d is not a base node", bid)
		}
		bids = append(bids, bid)
	}
	sort.Ints(bids)
	t := g.Length
	for _, bid := range bids {
		v := values[bid]
		for _, id := range g.coverClosure(bid) {
			g.Nodes[id].Series.Values[t] += v
		}
	}
	g.Length++
	return nil
}

// coverClosure returns the IDs of all nodes covering the given base node
// (including itself), via BFS over parent links, memoized.
func (g *EagerOracle) coverClosure(baseID int) []int {
	if c, ok := g.coverCache[baseID]; ok {
		return c
	}
	seen := map[int]bool{baseID: true}
	queue := []int{baseID}
	out := []int{baseID}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, p := range g.Nodes[cur].ParentIDs {
			if p < 0 || seen[p] {
				continue
			}
			seen[p] = true
			out = append(out, p)
			queue = append(queue, p)
		}
	}
	if g.coverCache == nil {
		g.coverCache = make(map[int][]int, len(g.BaseIDs))
	}
	g.coverCache[baseID] = out
	return out
}

// BaseIncidence returns, for every node ID, the sorted base-node IDs it
// covers, by walking each base node's ancestor closure once.
func (g *EagerOracle) BaseIncidence() [][]int {
	out := make([][]int, len(g.Nodes))
	for _, bid := range g.BaseIDs {
		for _, id := range g.coverClosure(bid) {
			out[id] = append(out[id], bid)
		}
	}
	for _, l := range out {
		sort.Ints(l)
	}
	return out
}

// RequireBitIdentical fails unless every node of the graph agrees with the
// oracle on key, structure, covered bases and bit-exact series contents.
// Nodes are resolved through the accessor, which materializes them.
func RequireBitIdentical(t testing.TB, a *EagerOracle, b *Graph) {
	t.Helper()
	if len(a.Nodes) != b.NumNodes() {
		t.Fatalf("node counts differ: %d vs %d", len(a.Nodes), b.NumNodes())
	}
	if a.TopID != b.TopID {
		t.Fatalf("TopID differs: %d vs %d", a.TopID, b.TopID)
	}
	if a.Length != b.Length {
		t.Fatalf("lengths differ: %d vs %d", a.Length, b.Length)
	}
	if !slices.Equal(a.BaseIDs, b.BaseIDs) {
		t.Fatalf("BaseIDs differ: %v vs %v", a.BaseIDs, b.BaseIDs)
	}
	inc := a.BaseIncidence()
	for id, na := range a.Nodes {
		if got := b.KeyOf(id); got != na.Coord.Key(a.Dims) {
			t.Fatalf("node %d key before materialization: %q vs %q", id, na.Coord.Key(a.Dims), got)
		}
		if b.IsBase(id) != na.IsBase {
			t.Fatalf("node %d IsBase before materialization: %v vs %v", id, na.IsBase, b.IsBase(id))
		}
		if !slices.Equal(inc[id], b.CoveredBases(id)) || len(inc[id]) != b.CoveredBaseCount(id) {
			t.Fatalf("node %d covered bases: %v vs %v (count %d)", id, inc[id], b.CoveredBases(id), b.CoveredBaseCount(id))
		}
		nb := b.Node(id)
		if na.ID != nb.ID || na.Coord.Key(a.Dims) != nb.Coord.Key(b.Dims) {
			t.Fatalf("node %d: %d %q vs %d %q", id, na.ID, na.Coord.Key(a.Dims), nb.ID, nb.Coord.Key(b.Dims))
		}
		if na.IsBase != nb.IsBase || na.Depth != nb.Depth {
			t.Fatalf("node %d flags differ: base %v/%v depth %d/%d",
				id, na.IsBase, nb.IsBase, na.Depth, nb.Depth)
		}
		if len(na.Series.Values) != len(nb.Series.Values) {
			t.Fatalf("node %d series length: %d vs %d",
				id, len(na.Series.Values), len(nb.Series.Values))
		}
		for ti, v := range na.Series.Values {
			if math.Float64bits(v) != math.Float64bits(nb.Series.Values[ti]) {
				t.Fatalf("node %d t=%d: %v vs %v (not bit-identical)",
					id, ti, v, nb.Series.Values[ti])
			}
		}
		if !slices.Equal(na.ParentIDs, nb.ParentIDs) {
			t.Fatalf("node %d parents: %v vs %v", id, na.ParentIDs, nb.ParentIDs)
		}
		for d := range a.Dims {
			if !slices.Equal(na.ChildEdges[d], nb.ChildEdges[d]) {
				t.Fatalf("node %d dim %d edge: %v vs %v", id, d, na.ChildEdges[d], nb.ChildEdges[d])
			}
		}
		if !slices.Equal(a.Neighbors(id), b.Neighbors(id)) {
			t.Fatalf("node %d neighbors: %v vs %v", id, a.Neighbors(id), b.Neighbors(id))
		}
	}
}
