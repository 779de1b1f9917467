package cube

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"cubefc/internal/timeseries"
)

// Node is one vertex of the time-series hyper graph: a base or aggregated
// time series identified by its coordinate.
type Node struct {
	ID    int
	Coord Coord
	// Series holds the (base or SUM-aggregated) time series of this node.
	Series *timeseries.Series
	// ChildEdges contains one hyper edge per dimension that is aggregated
	// at this node: ChildEdges[d] lists the node IDs whose aggregation
	// along dimension d yields this node. Dimensions at their finest
	// level have a nil entry; base nodes share one all-nil view, never written.
	ChildEdges [][]int
	// ParentIDs lists, per dimension, the node obtained by rolling this
	// node up one level along that dimension (-1 when already at ALL).
	// Like Coord and the edges of ChildEdges it is a view of the graph's
	// skeleton and must not be written.
	ParentIDs []int
	// IsBase marks nodes whose coordinate is at the finest level in every
	// dimension.
	IsBase bool
	// Depth is the total aggregation depth (sum of per-dimension levels);
	// base nodes have the minimum depth 0... it is used for level-wise
	// processing and as a tie breaker in distance ordering.
	Depth int
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
// coordinates, covered base nodes, parent table, child index — and
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

	// index maps coordinate keys to node IDs, built on first key lookup
	// (the packed skeleton construction never needs string keys).
	index   map[string]int
	idxOnce sync.Once

	// The skeleton, immutable after construction: the coordinate and the
	// covered base nodes of every node — as ordinals into BaseIDs, ascending,
	// in CSR form: node id covers incIDs[incOff[id]:incOff[id+1]], and a base
	// node covers exactly its own ordinal — the flattened
	// per-dimension parent IDs (parents[id*D+d], -1 at ALL) and their CSR
	// inversion: the child edge of (node p, dim d) is
	// childIDs[childOff[p*D+d]:childOff[p*D+d+1]], ascending. Node.ParentIDs
	// and Node.ChildEdges alias parents and childIDs.
	coords   []Coord
	incOff   []int32
	incIDs   []int32
	parents  []int
	childOff []int32
	childIDs []int

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

// CoordOf returns the coordinate of the node ID without materializing it.
// The returned coordinate must not be mutated.
func (g *Graph) CoordOf(id int) Coord { return g.coords[id] }

// DepthOf returns the node's aggregation depth, the sum of its per-dimension
// levels (Node.Depth), without materializing it.
func (g *Graph) DepthOf(id int) int {
	depth := 0
	for _, c := range g.coords[id] {
		depth += c.Level
	}
	return depth
}

// KeyOf returns the canonical coordinate key of the node ID without
// materializing it.
func (g *Graph) KeyOf(id int) string { return g.coords[id].Key(g.Dims) }

// keyIndex returns the coordinate-key index, building it on first use
// unless the string-keyed skeleton construction already did.
func (g *Graph) keyIndex() map[string]int {
	g.idxOnce.Do(func() {
		if g.index != nil {
			return
		}
		idx := make(map[string]int, len(g.coords))
		for id, c := range g.coords {
			idx[c.Key(g.Dims)] = id
		}
		g.index = idx
	})
	return g.index
}

// LookupCoord resolves a coordinate to its node ID without materializing
// the node or rendering a key string: the key bytes go into buf[:0]
// (returned for reuse, possibly grown) and probe the index directly.
func (g *Graph) LookupCoord(coord Coord, buf []byte) (id int, ok bool, key []byte) {
	key = coord.AppendKey(buf[:0], g.Dims)
	id, ok = g.keyIndex()[string(key)] // no string is allocated for a map probe
	return id, ok, key
}

// Lookup resolves a coordinate to its node, or nil if absent.
func (g *Graph) Lookup(coord Coord) *Node {
	var buf [64]byte
	id, ok, _ := g.LookupCoord(coord, buf[:0])
	if !ok {
		return nil
	}
	return g.Node(id)
}

// LookupID resolves a canonical key to its node ID, materializing nothing.
func (g *Graph) LookupID(key string) (int, bool) {
	id, ok := g.keyIndex()[key]
	return id, ok
}

// LookupKey resolves a canonical key to its node, or nil if absent.
func (g *Graph) LookupKey(key string) *Node {
	id, ok := g.LookupID(key)
	if !ok {
		return nil
	}
	return g.Node(id)
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
// base series. All base series must have equal length and the same
// period, and no two may share a coordinate. Aggregated series are
// computed with SUM (Section II-A), on first access.
//
// The base nodes' series share the input value arrays, capped with a full
// slice expression: no value below a series' length is ever written (Advance
// appends within capacity, or moves a full series to fresh memory first), so
// the graph neither copies them nor changes what the caller sees.
func NewGraph(dims []Dimension, base []BaseSeries) (*Graph, error) {
	if len(base) == 0 {
		return nil, fmt.Errorf("cube: graph requires at least one base series")
	}
	for i, b := range base {
		if b.Series == nil {
			return nil, fmt.Errorf("cube: base series %d has no series", i)
		}
		if len(b.Members) != len(dims) {
			return nil, fmt.Errorf("cube: base series %d has %d members, want %d", i, len(b.Members), len(dims))
		}
		if b.Series.Len() != base[0].Series.Len() {
			return nil, fmt.Errorf("cube: base series %d has length %d, want %d", i, b.Series.Len(), base[0].Series.Len())
		}
	}
	length, period := base[0].Series.Len(), base[0].Series.Period
	g := &Graph{Dims: dims, Period: period, Length: length}

	// baseNodeIDs holds the node ID per input entry, in slice order.
	baseNodeIDs, err := g.buildSkeletonPacked(base)
	if err == errPackedOverflow {
		baseNodeIDs, err = g.buildSkeletonKeys(base)
	}
	if err != nil {
		return nil, err
	}
	g.buildChildIndex()

	// Materialize the base nodes, their allocations batched across all of
	// them.
	g.nodes = make([]atomic.Pointer[Node], len(g.coords))
	nodeArr := make([]Node, len(base))
	seriesArr := make([]timeseries.Series, len(base))
	noEdges := make([][]int, len(dims)) // base nodes have no children
	for i, b := range base {
		id := baseNodeIDs[i]
		seriesArr[i] = timeseries.Series{Values: b.Series.Values[:length:length], Period: period}
		n := &nodeArr[i]
		*n = Node{
			ID:         id,
			Coord:      g.coords[id],
			Series:     &seriesArr[i],
			ChildEdges: noEdges,
			ParentIDs:  g.ParentsOf(id),
			IsBase:     true,
		}
		g.nodes[id].Store(n)
	}
	g.matCount.Store(int64(len(base)))
	return g, nil
}

// maxPackedDims bounds the packed-key skeleton construction: coordinate
// identity is encoded as one uint64 with 16 bits per dimension.
const maxPackedDims = 4

// errPackedOverflow signals that the cube has more than maxPackedDims
// dimensions or a dimension exceeded 2^16 distinct cells, and the
// construction must restart on the string-keyed path.
var errPackedOverflow = fmt.Errorf("cube: packed skeleton overflow")

// buildSkeletonPacked runs the skeleton enumeration with purely numeric
// coordinate identities: every distinct (level, value) cell of a
// dimension gets a compact code, each base member's ancestor chain of
// codes is memoized, and a coordinate is identified either by its index in
// the dense cell-code space (a direct-address table, when that space is
// small enough) or by packing its cell codes 16 bits each into one uint64
// (a hash map). The enumeration order — and therefore every node ID — is
// identical to the string-keyed path; only the dedup key representation
// differs. It also records, per visited
// lattice, the flattened per-dimension parent IDs, which is pure integer
// arithmetic here (a coordinate's parent along dimension d is the tuple
// one chain position up in the same base lattice).
func (g *Graph) buildSkeletonPacked(base []BaseSeries) ([]int, error) {
	D := len(g.Dims)
	if D > maxPackedDims {
		return nil, errPackedOverflow
	}
	type dimState struct {
		cells  []Cell             // code -> cell
		code   map[Cell]int32     // cell -> code
		chains map[string][]int32 // finest member -> ancestor chain codes
	}
	ds := make([]dimState, D)
	for d := range ds {
		ds[d].code = make(map[Cell]int32)
		ds[d].chains = make(map[string][]int32)
	}

	// Phase 1: memoized ancestor-chain codes per distinct member. This
	// fixes each dimension's cell universe before any enumeration, so the
	// key representation can be chosen up front.
	baseChains := make([][]int32, len(base)*D)
	for i, b := range base {
		for d := range g.Dims {
			st := &ds[d]
			member := b.Members[d]
			ch, ok := st.chains[member]
			if !ok {
				dim := &g.Dims[d]
				ch = make([]int32, 0, dim.AllLevel()+1)
				for lvl := 0; lvl <= dim.AllLevel(); lvl++ {
					v, err := dim.Ancestor(member, 0, lvl)
					if err != nil {
						return nil, err
					}
					cell := Cell{Level: lvl, Value: v}
					c, okc := st.code[cell]
					if !okc {
						c = int32(len(st.cells))
						st.code[cell] = c
						st.cells = append(st.cells, cell)
					}
					ch = append(ch, c)
				}
				st.chains[member] = ch
			}
			baseChains[i*D+d] = ch
		}
	}

	// denseCap bounds the direct-address table (entries, i.e. 4 bytes
	// each): beyond it fall back to the hash map over 16-bit-packed codes.
	const denseCap = 1 << 22
	prod := 1
	dense := true
	for d := range ds {
		c := len(ds[d].cells)
		if c == 0 {
			c = 1
		}
		if prod > denseCap/c {
			dense = false
			break
		}
		prod *= c
	}
	// Pair and tuple counts are known exactly from the chains, so the hot
	// loop below never grows a slice.
	totalPairs, maxTuples := 0, 0
	for i := range base {
		n := 1
		for d := 0; d < D; d++ {
			n *= len(baseChains[i*D+d])
		}
		totalPairs += n
		if n > maxTuples {
			maxTuples = n
		}
	}

	var table []int32 // stores id+1; 0 means empty, so no init pass
	var byKey map[uint64]int32
	var keyStride [maxPackedDims]uint64
	if dense {
		table = make([]int32, prod)
		s := uint64(1)
		for d := D - 1; d >= 0; d-- {
			keyStride[d] = s
			s *= uint64(len(ds[d].cells))
		}
	} else {
		for d := range ds {
			if len(ds[d].cells) > 1<<16 {
				return nil, errPackedOverflow
			}
		}
		byKey = make(map[uint64]int32, len(base)*2)
	}

	// The enumeration collects pointer-free flat arrays only — cell codes
	// per new node and (covering node, covered base) pairs — and builds
	// the coordinate table and incidence CSR in one pass afterwards,
	// keeping allocation churn and GC scan work out of the hot loop.
	chains := make([][]int32, D)
	sel := make([]int32, D)
	var codesArr []int32
	pairNode := make([]int32, 0, totalPairs)
	pairBase := make([]int32, 0, totalPairs)
	var numNodes int32
	tupleIDs := make([]int32, 0, maxTuples)
	var bid, ord int32 // the base entry being enumerated: node ID, ordinal
	var dup bool
	touch := func(key uint64) {
		var id int32
		var ok bool
		if dense {
			id = table[key] - 1
			ok = id >= 0
		} else {
			id, ok = byKey[key]
		}
		if !ok {
			id = numNodes
			numNodes++
			if dense {
				table[key] = id + 1
			} else {
				byKey[key] = id
			}
			codesArr = append(codesArr, sel...)
		} else if bid < 0 {
			dup = true
		}
		if bid < 0 {
			bid = id
		}
		if !dup {
			pairNode = append(pairNode, id)
			pairBase = append(pairBase, ord)
		}
		tupleIDs = append(tupleIDs, id)
	}
	var visit func(d int, key uint64)
	visit = func(d int, key uint64) {
		if d == D {
			touch(key)
			return
		}
		for _, c := range chains[d] {
			sel[d] = c
			if dense {
				visit(d+1, key+uint64(c)*keyStride[d])
			} else {
				visit(d+1, key<<16|uint64(c))
			}
		}
	}

	baseNodeIDs := make([]int, 0, len(base))
	stride := make([]int, D)
	for bi := range base {
		for d := 0; d < D; d++ {
			chains[d] = baseChains[bi*D+d]
		}
		// The first coordinate visited for a base entry is its own
		// (all-finest) coordinate, so the base node ID is assigned before
		// any of its ancestors that are new to this enumeration.
		bid, ord, dup = -1, int32(bi), false
		tupleIDs = tupleIDs[:0]
		visit(0, 0)
		if dup {
			c := make(Coord, D)
			for d := 0; d < D; d++ {
				c[d] = ds[d].cells[codesArr[int(bid)*D+d]]
			}
			return nil, fmt.Errorf("cube: duplicate base coordinate %q (series %d)", c.Key(g.Dims), bi)
		}
		g.BaseIDs = append(g.BaseIDs, int(bid))
		baseNodeIDs = append(baseNodeIDs, int(bid))

		// Record parents: within this base's lattice, rolling up one level
		// along dimension d moves exactly one chain position, i.e. one
		// stride in the visit order.
		for len(g.parents) < int(numNodes)*D {
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
					g.parents[row+d] = int(tupleIDs[ti+stride[d]])
				}
			}
		}
	}

	// Materialize the coordinate table (one Cell arena, one slice header
	// per node) and the incidence CSR from the collected pairs. The
	// counting sort is stable, so each node's bucket stays in ascending
	// ordinal order — base node IDs increase monotonically with input order
	// (BaseIDs is ascending as enumerated), so that is ascending base-ID
	// order, which fixes the aggregates' accumulation order.
	n := int(numNodes)
	cellsArr := make([]Cell, n*D)
	g.coords = make([]Coord, n)
	for i := 0; i < n; i++ {
		for d := 0; d < D; d++ {
			cellsArr[i*D+d] = ds[d].cells[codesArr[i*D+d]]
		}
		g.coords[i] = cellsArr[i*D : (i+1)*D : (i+1)*D]
	}
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

	var topKey uint64
	for d := 0; d < D; d++ {
		c, ok := ds[d].code[Cell{Level: g.Dims[d].AllLevel()}]
		if !ok {
			return nil, fmt.Errorf("cube: internal error: missing top node")
		}
		if dense {
			topKey += uint64(c) * keyStride[d]
		} else {
			topKey = topKey<<16 | uint64(c)
		}
	}
	var tid int32
	if dense {
		tid = table[topKey] - 1
	} else {
		var ok bool
		tid, ok = byKey[topKey]
		if !ok {
			tid = -1
		}
	}
	if tid < 0 {
		return nil, fmt.Errorf("cube: internal error: missing top node")
	}
	g.TopID = int(tid)
	return baseNodeIDs, nil
}

// buildSkeletonKeys is the string-keyed fallback skeleton construction for
// graphs the packed encoding cannot represent (more than maxPackedDims
// dimensions or over 2^16 distinct cells in one dimension). It produces
// the same IDs, incidence and parents as the packed path.
func (g *Graph) buildSkeletonKeys(base []BaseSeries) ([]int, error) {
	dims := g.Dims
	g.coords, g.incOff, g.incIDs, g.parents, g.BaseIDs = nil, nil, nil, nil, nil
	g.index = make(map[string]int)
	var incidence [][]int32

	perDim := make([][]Cell, len(dims))
	coord := make(Coord, len(dims))
	var enumerate func(d int, visit func(Coord))
	enumerate = func(d int, visit func(Coord)) {
		if d == len(dims) {
			visit(coord)
			return
		}
		for _, cell := range perDim[d] {
			coord[d] = cell
			enumerate(d+1, visit)
		}
	}

	baseNodeIDs := make([]int, 0, len(base))
	for bi, b := range base {
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
		bid := -1
		dup := false
		enumerate(0, func(c Coord) {
			key := c.Key(dims)
			id, ok := g.index[key]
			if !ok {
				id = len(g.coords)
				g.index[key] = id
				g.coords = append(g.coords, append(Coord(nil), c...))
				incidence = append(incidence, nil)
			} else if bid < 0 {
				dup = true
			}
			if bid < 0 {
				bid = id
			}
			if !dup {
				incidence[id] = append(incidence[id], int32(bi))
			}
		})
		if dup {
			return nil, fmt.Errorf("cube: duplicate base coordinate %q (series %d)", g.coords[bid].Key(dims), bi)
		}
		g.BaseIDs = append(g.BaseIDs, bid)
		baseNodeIDs = append(baseNodeIDs, bid)
	}

	// Flatten the per-node incidence lists into the CSR form the packed
	// path produces directly.
	g.incOff = make([]int32, len(incidence)+1)
	total := 0
	for i, inc := range incidence {
		total += len(inc)
		g.incOff[i+1] = int32(total)
	}
	g.incIDs = make([]int32, 0, total)
	for _, inc := range incidence {
		g.incIDs = append(g.incIDs, inc...)
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

	// Fill parents by coordinate roll-up through the (complete) key index.
	D := len(dims)
	g.parents = make([]int, len(g.coords)*D)
	pc := make(Coord, D)
	for id, c := range g.coords {
		copy(pc, c)
		for d := range dims {
			dim := &dims[d]
			cell := c[d]
			if cell.IsAll(dim) {
				g.parents[id*D+d] = -1
				continue
			}
			pv, err := dim.Ancestor(cell.Value, cell.Level, cell.Level+1)
			if err != nil {
				return nil, err
			}
			pc[d] = Cell{Level: cell.Level + 1, Value: pv}
			pid, ok := g.index[pc.Key(dims)]
			if !ok {
				return nil, fmt.Errorf("cube: internal error: missing parent node %s", pc.Key(dims))
			}
			pc[d] = cell
			g.parents[id*D+d] = pid
		}
	}
	return baseNodeIDs, nil
}

// inc returns a node's covered base nodes, as ascending ordinals into
// BaseIDs, from the skeleton's incidence CSR.
func (g *Graph) inc(id int) []int32 {
	return g.incIDs[g.incOff[id]:g.incOff[id+1]]
}

// materialize builds an aggregate node: its series summed from the covered
// base series in ascending base-ID order, with the capacity the base series
// have (so it fills when they do, see Advance), its parents and child hyper
// edges views of the skeleton. It serializes against other
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
	D := len(g.Dims)
	edges := make([][]int, D)
	for d := range edges {
		// Dimensions at their finest level keep a nil entry.
		if edge := g.ChildrenAlong(id, d); len(edge) > 0 {
			edges[d] = edge
		}
	}
	n := &Node{
		ID:         id,
		Coord:      g.coords[id],
		Series:     timeseries.New(vals, g.Period),
		ChildEdges: edges,
		ParentIDs:  g.ParentsOf(id),
		Depth:      g.DepthOf(id),
	}
	g.matCount.Add(1)
	g.nodes[id].Store(n)
	return n
}

// buildChildIndex inverts the parent table into the child index: for
// every (node, dimension) bucket the IDs of the nodes that roll up into
// it. The inversion scans IDs ascending, so every edge comes out sorted.
func (g *Graph) buildChildIndex() {
	D := len(g.Dims)
	n := len(g.coords)
	off := make([]int32, n*D+1)
	for i, p := range g.parents {
		if p >= 0 {
			off[p*D+i%D+1]++
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	ids := make([]int, off[len(off)-1])
	cur := make([]int32, n*D)
	copy(cur, off[:n*D])
	for i, p := range g.parents {
		if p >= 0 {
			b := p*D + i%D
			ids[cur[b]] = i / D
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
		tc, sc := g.coords[t][d], g.coords[s][d]
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
func (g *Graph) ParentsOf(id int) []int {
	D := len(g.Dims)
	return g.parents[id*D : (id+1)*D : (id+1)*D]
}

// childrenOf returns the node's child edges of every dimension, in
// dimension order: the buckets of one node are adjacent in the index.
func (g *Graph) childrenOf(id int) []int {
	D := len(g.Dims)
	return g.childIDs[g.childOff[id*D]:g.childOff[(id+1)*D]]
}

// ChildrenAlong returns the IDs, ascending, of the nodes that roll up into
// the node along dimension d — its child hyper edge of that dimension, empty
// at the finest level — read from the skeleton without materializing
// anything. The result is a view and must not be written.
func (g *Graph) ChildrenAlong(id, d int) []int {
	b := id*len(g.Dims) + d
	lo, hi := g.childOff[b], g.childOff[b+1]
	return g.childIDs[lo:hi:hi]
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
				s.add(p, k)
			}
		}
		for _, c := range g.childrenOf(cur) {
			s.add(c, k)
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
// fill at one time point and then move to rows of one allocation, each capped
// at its end so no node's append reaches another's values: a time point
// allocates once per graph. Nothing below a series' length is written, so a
// reader holding an older slice is unaffected.
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

// growCap is the capacity a full series of n values grows to: double while
// short, then a quarter more, as append grows a slice — geometric, so a
// series is copied O(log n) times however long it runs.
func growCap(n int) int {
	if n < 256 {
		return max(2*n, 8)
	}
	return n + (n+3*256)/4
}

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
