package f2db

import (
	"fmt"
	"time"

	"cubefc/internal/cube"
)

// This file is the planning half of the Section V query processor: the
// statement rewrite (query text → referenced graph nodes), done by one
// resolver that both tiers call. The engine executes the plan; a process
// that holds no series data — the cluster coordinator in internal/coord —
// routes by it. One resolver means the node set, the member order and every
// rejection message are the same in both by construction.

// Planner resolves statements against a hyper graph without an engine.
// It is immutable after construction and safe for concurrent use.
type Planner struct {
	g    *cube.Graph
	step time.Duration
}

// NewPlanner returns a planner over the graph. step is the engine's
// StepDuration (horizon translation); 0 selects the engine default (24h).
func NewPlanner(g *cube.Graph, step time.Duration) *Planner {
	if step <= 0 {
		step = 24 * time.Hour
	}
	return &Planner{g: g, step: step}
}

// Planner returns the engine's own planner — how a coordinator built from a
// loaded snapshot obtains one without reaching into the engine.
func (db *DB) Planner() *Planner { return db.planner }

// Plan is a fully resolved SELECT: the parsed statement, the graph nodes
// it describes, the grouping member per node and the forecast horizon in
// steps. Every field is immutable once the plan is handed out, so a cached
// plan is safe to execute or route from any number of goroutines. Planning
// needs no engine lock: it reads only the graph structure, fixed after
// construction. Only the engine fills the rendered node keys; a coordinator
// routes by Nodes alone and pays nothing for them.
type Plan struct {
	stmt selectStmt
	// Nodes holds the described graph node IDs, one per result group, in
	// result-group order.
	Nodes []int
	// Members holds the grouping member per node ("" for single-node
	// statements), parallel to Nodes.
	Members []string
	// Forecast marks AS OF statements.
	Forecast bool
	// Explain marks EXPLAIN statements.
	Explain bool

	horizon int      // forecast steps; 0 for historical and EXPLAIN statements
	keys    []string // engine only: node coordinate keys, rendered once (Coord.Key is hot)
	// oneNode, oneMember and oneKey back Nodes, Members and keys of a
	// one-node plan, so that planning it allocates nothing but the Plan.
	oneNode           [1]int
	oneMember, oneKey [1]string
}

// plan is the single resolver: parse, resolve the described nodes and
// their members, translate the horizon. Every planning rejection in the
// system is produced here, in this order. The statement is parsed into pl
// itself, so a plan of one node is one allocation: the Plan, or the read
// table entry that holds it.
func (p *Planner) plan(pl *Plan, sql string) error {
	if err := parseQuery(sql, &pl.stmt); err != nil {
		return err
	}
	pl.Explain, pl.Forecast = pl.stmt.explain, pl.stmt.horizon != "" && !pl.stmt.explain
	if err := pl.resolve(p.g); err != nil {
		return err
	}
	if pl.Forecast {
		var err error
		if pl.horizon, err = parseHorizonIn(p.step, pl.stmt.horizon); err != nil {
			return err
		}
	}
	return nil
}

// RouteQuery plans a SELECT for routing: the statement goes whole to the
// owner of Nodes[0]. It is an unmemoised planning call — callers that want
// a statement planned once keep the plan. Errors are the engine's planning
// errors byte-for-byte, so a coordinator rejecting a statement is
// indistinguishable from a shard rejecting it.
func (p *Planner) RouteQuery(sql string) (*Plan, error) {
	pl := new(Plan)
	if err := p.plan(pl, sql); err != nil {
		return nil, err
	}
	return pl, nil
}

// NodeKey renders a node's canonical coordinate key, for diagnostics.
func (p *Planner) NodeKey(id int) string {
	if id < 0 || id >= p.g.NumNodes() {
		return fmt.Sprintf("node(%d)", id)
	}
	return p.g.KeyOf(id)
}
