package cube

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"cubefc/internal/timeseries"
)

// Node is one vertex of the time-series hyper graph: a base or aggregated
// time series. What else is known of a node — its coordinate, parents, child
// edges, depth — is read from the graph by ID (CellOf, ParentsOf,
// ChildrenAlong, IsBase, DepthOf), which materializes nothing.
type Node struct {
	ID int
	// Series holds the (base or SUM-aggregated) time series of this node.
	Series *timeseries.Series
}

// BaseSeries identifies one base time series by its finest-level member
// values (one per dimension, in dimension order).
type BaseSeries struct {
	Members []string
	Series  *timeseries.Series
}

// Graph is the directed time-series hyper graph of Section II-A: it is
// complete (contains all aggregation possibilities of the instance),
// a series can contribute to several aggregates, and functional
// dependencies are encoded through the dimension hierarchies.
//
// Construction enumerates every coordinate into a numeric skeleton —
// cell codes, covered base nodes, parent table, child index — and
// materializes only the base nodes; an aggregate node's series is built
// on first access through Node (or any accessor that resolves a node).
// Each aggregate sums its covered base series in ascending base-ID order,
// so series contents are bit-for-bit reproducible whatever the order of
// access.
type Graph struct {
	Dims []Dimension
	// TopID is the node aggregating over all dimensions; BaseIDs are the
	// finest-level nodes in enumeration order.
	TopID   int
	BaseIDs []int
	Period  int
	Length  int // number of observations in every node series

	// nodes holds one atomically published slot per node ID. Base slots
	// are filled at construction; aggregate slots start nil and are filled
	// under matMu on first access.
	nodes []atomic.Pointer[Node]

	// The coordinate index, built on first lookup: per dimension a map from a
	// cell's key part to its code, and node IDs sorted by code tuple (4 B a
	// node).
	codeOf  []map[string]int32
	byCodes []int32
	idxOnce sync.Once

	// The skeleton, immutable after construction, with D = len(Dims). Node
	// id's coordinate is the cell codes codes[id*D:(id+1)*D], code c of
	// dimension d standing for cells[d][c]. It covers the base nodes
	// incIDs[incOff[id]:incOff[id+1]] — ordinals into BaseIDs, ascending; a
	// base node covers exactly its own. parents[id*D+d] is its parent along
	// dimension d (-1 at ALL), and the CSR inversion of that table is the
	// child index: the child edge of (node p, dim d) is
	// childIDs[childOff[p*D+d]:childOff[p*D+d+1]], ascending.
	codes    []int32
	cells    [][]Cell
	incOff   []int32
	incIDs   []int32
	parents  []int32
	childOff []int32
	childIDs []int32

	// matMu serializes materialization and Advance (which must see a
	// consistent set of materialized series); matCount counts the
	// materialized nodes for lock-free metrics reads.
	matMu    sync.Mutex
	matCount atomic.Int64
	latest   []float64 // every node's newest observation, from Advance (nil before the first)
}

// NumNodes returns the total number of nodes in the graph.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// MaterializedNodes returns how many nodes currently exist as full Node
// structures.
func (g *Graph) MaterializedNodes() int { return int(g.matCount.Load()) }

// Node resolves a node ID to its node, materializing it first when it has
// not been touched before. It is safe for concurrent use.
func (g *Graph) Node(id int) *Node {
	if n := g.nodes[id].Load(); n != nil {
		return n
	}
	return g.materialize(id)
}

// IsBase reports whether the node ID is a base (finest-level) node without
// materializing it.
func (g *Graph) IsBase(id int) bool {
	_, ok := g.BaseOrdinal(id)
	return ok
}

// BaseOrdinal returns the position of a base node in BaseIDs — its index in
// the column Advance takes — and false for any other ID. Every node covers
// at least one base node, and only a base node's first is itself.
func (g *Graph) BaseOrdinal(id int) (int, bool) {
	if id < 0 || id >= len(g.nodes) {
		return 0, false
	}
	ord := int(g.incIDs[g.incOff[id]])
	return ord, g.BaseIDs[ord] == id
}

// CellOf returns the node's cell of dimension d without materializing the
// node or allocating.
func (g *Graph) CellOf(id, d int) Cell { return g.cells[d][g.codes[id*len(g.Dims)+d]] }

// CoordOf returns a fresh copy of the node's coordinate without
// materializing the node. It allocates; CellOf and AppendKey do not.
func (g *Graph) CoordOf(id int) Coord {
	c := make(Coord, len(g.Dims))
	for d := range c {
		c[d] = g.CellOf(id, d)
	}
	return c
}

// DepthOf returns the node's aggregation depth, the sum of its per-dimension
// levels (0 at a base node), without materializing it.
func (g *Graph) DepthOf(id int) int {
	depth := 0
	for d := range g.Dims {
		depth += g.CellOf(id, d).Level
	}
	return depth
}

// AppendKey appends the canonical coordinate key of the node ID to dst and
// returns the extended slice, materializing nothing.
func (g *Graph) AppendKey(dst []byte, id int) []byte {
	return appendKey(dst, g.Dims, func(d int) Cell { return g.CellOf(id, d) })
}

// KeyOf returns the canonical coordinate key of the node ID without
// materializing it.
func (g *Graph) KeyOf(id int) string {
	var buf [64]byte
	return string(g.AppendKey(buf[:0], id))
}

// index builds the coordinate index on first lookup.
func (g *Graph) index() {
	g.idxOnce.Do(func() {
		g.codeOf = make([]map[string]int32, len(g.Dims))
		for d, cells := range g.cells {
			g.codeOf[d] = make(map[string]int32, len(cells))
			for c, cell := range cells {
				g.codeOf[d][string(appendCell(nil, &g.Dims[d], cell))] = int32(c)
			}
		}
		g.byCodes = make([]int32, len(g.nodes))
		for id := range g.byCodes {
			g.byCodes[id] = int32(id)
		}
		slices.SortFunc(g.byCodes, func(a, b int32) int { return slices.Compare(g.tuple(a), g.tuple(b)) })
	})
}

// tuple returns the node's cell codes, one per dimension.
func (g *Graph) tuple(id int32) []int32 { return g.codes[int(id)*len(g.Dims) : int(id+1)*len(g.Dims)] }

// LookupID resolves a canonical key to its node ID without materializing the
// node or allocating: each '|'-separated part maps to its dimension's cell
// code, and the code tuple is binary-searched in the index.
func (g *Graph) LookupID(key []byte) (int, bool) {
	g.index()
	want := make([]int32, 0, 8)
	for d := range g.Dims {
		part, rest, cut := bytes.Cut(key, []byte{'|'})
		c, ok := g.codeOf[d][string(part)]
		if !ok || cut != (d < len(g.Dims)-1) {
			return 0, false
		}
		want, key = append(want, c), rest
	}
	i := sort.Search(len(g.byCodes), func(i int) bool { return slices.Compare(g.tuple(g.byCodes[i]), want) >= 0 })
	if i == len(g.byCodes) || !slices.Equal(g.tuple(g.byCodes[i]), want) {
		return 0, false
	}
	return int(g.byCodes[i]), true
}

// LookupCoord renders a coordinate's key on the stack (any value at the ALL
// level as "*"; a key past 128 bytes allocates) and resolves it by LookupID.
func (g *Graph) LookupCoord(coord Coord) (int, bool) {
	if len(coord) != len(g.Dims) {
		return 0, false
	}
	var buf [128]byte
	return g.LookupID(appendKey(buf[:0], g.Dims, func(d int) Cell { return coord[d] }))
}

// Latest returns the node's newest observation, bit for bit the last value
// of Node(id).Series, without materializing the node. Like Length it changes
// only in Advance and must not be read during one.
func (g *Graph) Latest(id int) float64 {
	if g.latest != nil {
		return g.latest[id]
	}
	h := g.History(id, nil) // no Advance yet
	return h[len(h)-1]
}

// History writes Node(id).Series.Values, bit for bit, into scratch, grown
// when it holds fewer than Length values, and returns it without
// materializing the node. It never aliases the graph, so a caller reading
// many nodes one at a time reuses one row.
func (g *Graph) History(id int, scratch []float64) []float64 {
	g.matMu.Lock()
	defer g.matMu.Unlock()
	if n := g.nodes[id].Load(); n != nil {
		return append(scratch[:0], n.Series.Values...)
	}
	if cap(scratch) < g.Length {
		scratch = make([]float64, g.Length)
	}
	return g.sumLocked(id, scratch)
}

// Histories returns every node's series in one read under one lock: row id
// aliases a resident node's values, capped at their length, and the other
// rows are summed into one shared allocation. It materializes nothing, so a
// caller that reads every series once, such as an advisor run, leaves the
// resident set as it found it. The rows must not be written.
func (g *Graph) Histories() [][]float64 {
	g.matMu.Lock()
	defer g.matMu.Unlock()
	rows := make([][]float64, len(g.nodes))
	buf := make([]float64, (len(g.nodes)-int(g.matCount.Load()))*g.Length)
	for id := range rows {
		if n := g.nodes[id].Load(); n != nil {
			rows[id] = slices.Clip(n.Series.Values)
		} else {
			rows[id], buf = slices.Clip(g.sumLocked(id, buf)), buf[g.Length:]
		}
	}
	return rows
}

// sumLocked sums the node's covered base series per time step, in ascending
// base-ID order as materialize stores an aggregate, into dst[:Length]. The
// caller holds matMu.
func (g *Graph) sumLocked(id int, dst []float64) []float64 {
	vals := dst[:g.Length]
	clear(vals)
	for _, b := range g.inc(id) {
		for t, v := range g.nodes[g.BaseIDs[b]].Load().Series.Values[:g.Length] {
			vals[t] += v
		}
	}
	return vals
}

// NewGraph builds the complete hyper graph for the given dimensions and
// base series. All base series must have equal length and the same period,
// no two may share a coordinate, and no level name or member value may
// contain '|', the separator of coordinate keys. Aggregated series are
// computed with SUM (Section II-A), on first access.
//
// The base nodes' series share the input value arrays, capped with a full
// slice expression: no value below a series' length is ever written (Advance
// appends within capacity, or moves a full series to fresh memory first), so
// the graph neither copies them nor changes what the caller sees.
func NewGraph(dims []Dimension, base []BaseSeries) (*Graph, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("cube: graph requires at least one dimension")
	}
	if len(base) == 0 {
		return nil, fmt.Errorf("cube: graph requires at least one base series")
	}
	for _, dim := range dims {
		if l := slices.IndexFunc(dim.Levels, func(l string) bool { return strings.Contains(l, "|") }); l >= 0 {
			return nil, fmt.Errorf("cube: level %q of dimension %q contains '|', the key separator", dim.Levels[l], dim.Name)
		}
	}
	for i, b := range base {
		switch {
		case b.Series == nil:
			return nil, fmt.Errorf("cube: base series %d has no series", i)
		case len(b.Members) != len(dims):
			return nil, fmt.Errorf("cube: base series %d has %d members, want %d", i, len(b.Members), len(dims))
		case b.Series.Len() != base[0].Series.Len():
			return nil, fmt.Errorf("cube: base series %d has length %d, want %d", i, b.Series.Len(), base[0].Series.Len())
		case b.Series.Period != base[0].Series.Period:
			return nil, fmt.Errorf("cube: base series %d has period %d, want %d", i, b.Series.Period, base[0].Series.Period)
		}
	}
	length, period := base[0].Series.Len(), base[0].Series.Period
	g := &Graph{Dims: dims, Period: period, Length: length}
	if err := g.buildSkeleton(base); err != nil {
		return nil, err
	}
	g.buildChildIndex()

	// Materialize the base nodes, their allocations batched across all of
	// them. BaseIDs[i] is the node of input entry i.
	g.nodes = make([]atomic.Pointer[Node], len(g.parents)/len(dims))
	nodeArr := make([]Node, len(base))
	seriesArr := make([]timeseries.Series, len(base))
	for i, b := range base {
		seriesArr[i] = timeseries.Series{Values: b.Series.Values[:length:length], Period: period}
		nodeArr[i] = Node{ID: g.BaseIDs[i], Series: &seriesArr[i]}
		g.nodes[g.BaseIDs[i]].Store(&nodeArr[i])
	}
	g.matCount.Store(int64(len(base)))
	return g, nil
}

// buildSkeleton enumerates every coordinate of the cube into the skeleton.
//
// Phase 1 gives every distinct (level, value) cell of a dimension an int32
// code and memoizes each member's ancestor chain of codes, finest level
// first. Phase 2 visits each base entry's lattice — the Cartesian product
// of its chains — in dimension-major order: a coordinate new to the
// enumeration becomes the next node ID, so IDs follow the input order, and
// the first coordinate of a lattice, the all-finest one, is the entry's base
// node (the last, all-ALL, is the top). A coordinate is identified by its
// code tuple, interned one dimension at a time: the prefix over dimensions
// 0..d is (prefix ID over 0..d-1, code of d) packed into a uint64 and looked
// up in dimension d's table, whose IDs at the last dimension are node IDs.
// The tables are dropped when the skeleton is built. Within a lattice,
// rolling up one level along dimension d moves one chain position, one
// stride in the visit order, so the parent table is integer arithmetic.
func (g *Graph) buildSkeleton(base []BaseSeries) error {
	D := len(g.Dims)
	g.cells = make([][]Cell, D)
	codeOf := make([]map[Cell]int32, D)
	chainOf := make([]map[string][]int32, D)
	for d := range codeOf {
		codeOf[d] = make(map[Cell]int32)
		chainOf[d] = make(map[string][]int32)
	}

	// Phase 1. The pair count follows from the chains, so the enumeration
	// below never grows its per-pair arrays.
	baseChains := make([][]int32, len(base)*D)
	totalPairs := 0
	for i, b := range base {
		tuples := 1
		for d := range g.Dims {
			member := b.Members[d]
			ch, ok := chainOf[d][member]
			if !ok {
				dim := &g.Dims[d]
				ch = make([]int32, 0, dim.AllLevel()+1)
				for lvl := 0; lvl <= dim.AllLevel(); lvl++ {
					v, err := dim.Ancestor(member, 0, lvl)
					if err != nil {
						return err
					}
					if strings.Contains(v, "|") {
						return fmt.Errorf("cube: base series %d: value %q of dimension %q contains '|', the key separator", i, v, dim.Name)
					}
					cell := Cell{Level: lvl, Value: v}
					c, seen := codeOf[d][cell]
					if !seen {
						c = int32(len(g.cells[d]))
						codeOf[d][cell] = c
						g.cells[d] = append(g.cells[d], cell)
					}
					ch = append(ch, c)
				}
				chainOf[d][member] = ch
			}
			baseChains[i*D+d] = ch
			tuples *= len(ch)
		}
		totalPairs += tuples
	}
	if totalPairs > math.MaxInt32 {
		return fmt.Errorf("cube: %d (node, base) pairs overflow the int32 skeleton", totalPairs)
	}

	// Phase 2 collects pointer-free flat arrays only — the codes of every
	// new node and the (covering node, covered base ordinal) pairs, a
	// lattice's pairs in visit order — and builds the incidence CSR in one
	// pass afterwards.
	prefix := make([]map[uint64]int32, D)
	for d, n := 0, 1; d < D; d++ {
		// At most every combination of the cells so far, and one per pair.
		n = min(n*len(g.cells[d]), totalPairs)
		prefix[d] = make(map[uint64]int32, n)
	}
	chains := make([][]int32, D)
	sel := make([]int32, D)
	pairNode := make([]int32, 0, totalPairs)
	pairBase := make([]int32, 0, totalPairs)
	var ord int32 // ordinal of the base entry being enumerated
	var visit func(d int, p int32)
	visit = func(d int, p int32) {
		for _, c := range chains[d] {
			sel[d] = c
			key := uint64(p)<<32 | uint64(c)
			id, ok := prefix[d][key]
			if !ok {
				id = int32(len(prefix[d]))
				prefix[d][key] = id
			}
			if d < D-1 {
				visit(d+1, id)
				continue
			}
			if !ok {
				g.codes = append(g.codes, sel...)
			}
			pairNode = append(pairNode, id)
			pairBase = append(pairBase, ord)
		}
	}

	stride := make([]int, D)
	for bi := range base {
		copy(chains, baseChains[bi*D:(bi+1)*D])
		known, start := int32(len(g.codes)/D), len(pairNode)
		ord = int32(bi)
		visit(0, 0)
		tupleIDs := pairNode[start:]
		bid := tupleIDs[0]
		if bid < known {
			return fmt.Errorf("cube: duplicate base coordinate %q (series %d)", g.KeyOf(int(bid)), bi)
		}
		g.BaseIDs = append(g.BaseIDs, int(bid))
		g.TopID = int(tupleIDs[len(tupleIDs)-1])

		for len(g.parents) < len(g.codes) {
			g.parents = append(g.parents, -1)
		}
		st := 1
		for d := D - 1; d >= 0; d-- {
			stride[d] = st
			st *= len(chains[d])
		}
		for ti, id := range tupleIDs {
			row := int(id) * D
			for d := 0; d < D; d++ {
				if (ti/stride[d])%len(chains[d]) < len(chains[d])-1 {
					g.parents[row+d] = tupleIDs[ti+stride[d]]
				}
			}
		}
	}

	// The incidence CSR from the collected pairs. The counting sort is
	// stable, so each node's bucket stays in ascending ordinal order — base
	// node IDs increase with input order, so that is ascending base-ID
	// order, which fixes the aggregates' accumulation order.
	n := len(g.codes) / D
	g.incOff = make([]int32, n+1)
	for _, id := range pairNode {
		g.incOff[id+1]++
	}
	for i := 1; i <= n; i++ {
		g.incOff[i] += g.incOff[i-1]
	}
	g.incIDs = make([]int32, len(pairNode))
	cur := make([]int32, n)
	copy(cur, g.incOff[:n])
	for i, id := range pairNode {
		g.incIDs[cur[id]] = pairBase[i]
		cur[id]++
	}
	return nil
}

// inc returns a node's covered base nodes, as ascending ordinals into
// BaseIDs, from the skeleton's incidence CSR.
func (g *Graph) inc(id int) []int32 {
	return g.incIDs[g.incOff[id]:g.incOff[id+1]]
}

// materialize builds an aggregate node: its series summed from the covered
// base series in ascending base-ID order, with the capacity the base series
// have (so it fills when they do, see Advance). It serializes against other
// materializations and Advance via matMu and publishes the node
// atomically, so concurrent readers either see nil (and take this path)
// or a fully built node.
func (g *Graph) materialize(id int) *Node {
	g.matMu.Lock()
	defer g.matMu.Unlock()
	if n := g.nodes[id].Load(); n != nil {
		return n
	}
	vals := g.sumLocked(id, make([]float64, g.Length, cap(g.nodes[g.BaseIDs[0]].Load().Series.Values)))
	n := &Node{ID: id, Series: timeseries.New(vals, g.Period)}
	g.matCount.Add(1)
	g.nodes[id].Store(n)
	return n
}

// buildChildIndex inverts the parent table into the child index: for
// every (node, dimension) bucket the IDs of the nodes that roll up into
// it. The inversion scans IDs ascending, so every edge comes out sorted.
func (g *Graph) buildChildIndex() {
	D := len(g.Dims)
	off := make([]int32, len(g.parents)+1)
	for i, p := range g.parents {
		if p >= 0 {
			off[int(p)*D+i%D+1]++
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	ids := make([]int32, off[len(off)-1])
	cur := make([]int32, len(g.parents))
	copy(cur, off)
	for i, p := range g.parents {
		if p >= 0 {
			b := int(p)*D + i%D
			ids[cur[b]] = int32(i / D)
			cur[b]++
		}
	}
	g.childOff, g.childIDs = off, ids
}

// Covers reports whether node t covers (is an ancestor-or-equal of) node s,
// i.e. whether the series of s contributes to the aggregate of t. It reads
// the skeleton's coordinates and materializes neither node.
func (g *Graph) Covers(t, s int) bool {
	for d := range g.Dims {
		dim := &g.Dims[d]
		tc, sc := g.CellOf(t, d), g.CellOf(s, d)
		if tc.Level < sc.Level {
			return false
		}
		if tc.IsAll(dim) {
			continue
		}
		av, err := dim.Ancestor(sc.Value, sc.Level, tc.Level)
		if err != nil || av != tc.Value {
			return false
		}
	}
	return true
}

// ParentsOf returns the node's per-dimension parent IDs (-1 at ALL), read
// from the skeleton without materializing anything. The result is a view and
// must not be written.
func (g *Graph) ParentsOf(id int) []int32 {
	D := len(g.Dims)
	return g.parents[id*D : (id+1)*D : (id+1)*D]
}

// childrenOf returns the node's child edges of every dimension, in
// dimension order: the buckets of one node are adjacent in the index.
func (g *Graph) childrenOf(id int) []int32 {
	D := len(g.Dims)
	return g.childIDs[g.childOff[id*D]:g.childOff[(id+1)*D]]
}

// ChildrenAlong returns the IDs, ascending, of the nodes that roll up into
// the node along dimension d — its child hyper edge of that dimension, empty
// at the finest level — read from the skeleton without materializing
// anything. The result is a view and must not be written.
func (g *Graph) ChildrenAlong(id, d int) []int32 {
	b := id*len(g.Dims) + d
	lo, hi := g.childOff[b], g.childOff[b+1]
	return g.childIDs[lo:hi:hi]
}

// AppendIDs appends a skeleton view's node IDs (ParentsOf, ChildrenAlong) to
// dst as ints, growing dst as appending them in one call would.
func AppendIDs(dst []int, ids []int32) []int {
	n := len(dst)
	dst = append(dst, make([]int, len(ids))...) // no temporary is allocated
	for i, id := range ids {
		dst[n+i] = int(id)
	}
	return dst
}

// BFSScratch is the working memory of ClosestNodes: the visited set and the
// result, which doubles as the BFS queue. The zero value is ready to use;
// reusing one across calls makes the search allocation-free once it has
// grown to the graph. A scratch belongs to one goroutine at a time, and it
// lives with the caller, never on the graph: a per-node adjacency cache here
// would buy the same speed for 7 % more live heap on a 5 000-node cube.
type BFSScratch struct {
	visited []uint64 // bitset over node IDs
	out     []int
}

// add appends nb to the result unless it was visited before or the result
// already holds k nodes.
func (s *BFSScratch) add(nb, k int) {
	w, bit := nb>>6, uint64(1)<<(nb&63)
	if len(s.out) < k && s.visited[w]&bit == 0 {
		s.visited[w] |= bit
		s.out = append(s.out, nb)
	}
}

// ClosestNodes returns up to k node IDs ordered by breadth-first distance
// from the given node (excluding the node itself). It implements the
// indicator-size restriction strategy of Section IV-C.1: "the local
// indicator of a node s is then constructed by including those nodes which
// are closest to s in the time series graph". The result is the order
// Neighbors yields — parents by dimension, then child edges by dimension —
// walked in place on the skeleton, so it materializes nothing. It aliases
// the scratch and is valid until the scratch is used again.
func (g *Graph) ClosestNodes(s *BFSScratch, id, k int) []int {
	if k <= 0 {
		return nil
	}
	if words := (len(g.nodes) + 63) / 64; len(s.visited) != words {
		s.visited = make([]uint64, words)
	} else {
		clear(s.visited)
	}
	s.visited[id>>6] |= 1 << (id & 63)
	s.out = s.out[:0]
	// Every discovered node is expanded in discovery order, so the result
	// is its own queue: head is the next node to expand.
	for cur, head := id, 0; ; head++ {
		for _, p := range g.ParentsOf(cur) {
			if p >= 0 {
				s.add(int(p), k)
			}
		}
		for _, c := range g.childrenOf(cur) {
			s.add(int(c), k)
		}
		if len(s.out) >= k || head >= len(s.out) {
			return s.out
		}
		cur = s.out[head]
	}
}

// CoveredBases returns the sorted base-node IDs whose series contribute
// to the node's aggregate (the node itself for base nodes), without
// materializing anything.
func (g *Graph) CoveredBases(id int) []int {
	inc := g.inc(id)
	out := make([]int, len(inc))
	for i, b := range inc {
		out[i] = g.BaseIDs[b]
	}
	return out
}

// CoveredBaseCount returns the number of base series contributing to the
// node's aggregate without materializing the node.
func (g *Graph) CoveredBaseCount(id int) int {
	return int(g.incOff[id+1] - g.incOff[id])
}

// Advance appends one new observation to every base series — column holds
// them in BaseIDs order, column[i] for base node BaseIDs[i] — computes every
// node's new SUM aggregate (Latest) and appends it to the materialized ones;
// nodes materialized later sum the extended base series. A column of any
// other length is refused with nothing changed, mirroring the batched-insert
// maintenance of Section V ("we currently batch inserts until a new value is
// available for each base time series"). The column is only read, not kept.
//
// Each node's new value sums the column entries of its covered bases in
// ascending base-ID order — the order of the incidence CSR — so aggregate
// sums are bit-for-bit reproducible however the column was filled
// (floating-point addition is not associative; a fixed order makes two
// engines fed the same batches byte-identical). Holding matMu for the whole
// advance keeps concurrent materializations from reading half-extended base
// series.
//
// Every resident series holds Length values in the bases' capacity, so all
// fill at one time point and then move to rows of one allocation, each of
// growCap(Length) values (a quarter more: at most 25 % slack beyond 8) and
// capped at its end so no node's append reaches another's values: a time
// point allocates once per graph. Nothing below a series' length is written,
// so a reader holding an older slice is unaffected.
func (g *Graph) Advance(column []float64) error {
	if len(column) != len(g.BaseIDs) {
		return fmt.Errorf("cube: Advance needs a value for all %d base series, got %d", len(g.BaseIDs), len(column))
	}
	g.matMu.Lock()
	defer g.matMu.Unlock()
	if g.latest == nil {
		g.latest = make([]float64, len(g.nodes))
	}
	var rows []float64
	stride := growCap(g.Length)
	if base := g.nodes[g.BaseIDs[0]].Load().Series.Values; len(base) == cap(base) {
		rows = make([]float64, int(g.matCount.Load())*stride)
	}
	for id := range g.latest {
		var v float64
		for _, b := range g.inc(id) {
			v += column[b]
		}
		g.latest[id] = v
		if n := g.nodes[id].Load(); n != nil {
			vals := n.Series.Values
			if len(vals) == cap(vals) {
				vals, rows = append(rows[:0:stride], vals...), rows[stride:]
			}
			n.Series.Values = append(vals, v)
		}
	}
	g.Length++
	return nil
}

// growCap is the capacity a full series of n values grows to: a quarter
// more, at least 8. Growth is geometric, so a series is copied O(log n) times
// however long it runs, and a grown series holds at most 25 % slack beyond
// 8 values.
func growCap(n int) int { return n + max(n/4, 8) }

// NodeValues returns the node's current series values, materializing the
// node first if need be. It satisfies the derivation.SeriesSource
// interface.
func (g *Graph) NodeValues(id int) []float64 { return g.Node(id).Series.Values }

// MaterializeAll forces every node into existence; tests use it for a
// fully resident twin.
func (g *Graph) MaterializeAll() {
	for id := 0; id < len(g.nodes); id++ {
		g.Node(id)
	}
}
