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
// it describes and the forecast horizon in steps. Every field is immutable
// once the plan is handed out, so a cached plan is safe to execute or route
// from any number of goroutines. Planning needs no engine lock: it reads
// only the graph structure, fixed after construction. Only the engine fills
// the rendered node keys; a coordinator routes by Nodes alone.
//
// A Plan is self-referential: a one-node plan's slices and the statement's
// predicates live in its own arrays. Plan into the memory the plan will
// stay in — a read table entry, a local — and do not copy it afterwards.
type Plan struct {
	stmt selectStmt
	// Nodes holds the described graph node IDs, one per result group, in
	// result-group order.
	Nodes []int
	// Forecast marks AS OF statements.
	Forecast bool
	// Explain marks EXPLAIN statements.
	Explain bool

	horizon  int      // forecast steps; 0 for historical and EXPLAIN statements
	groupDim int      // the GROUP BY <level> dimension; -1 for a single node
	keys     []string // engine only: node coordinate keys, rendered once (Coord.Key is hot)
	// oneNode and oneKey back Nodes and keys of a one-node plan, so that
	// planning it allocates nothing but the Plan.
	oneNode [1]int
	oneKey  [1]string
}

// member is the grouping member of node id: its value in the grouped
// dimension, "" for a single-node statement.
func (pl *Plan) member(g *cube.Graph, id int) string {
	if pl.groupDim < 0 {
		return ""
	}
	return g.CellOf(id, pl.groupDim).Value
}

// PlanInto is the single resolver: parse, resolve the described nodes,
// translate the horizon, into pl. Every planning rejection in the system is
// produced here, in this order, so a coordinator rejecting a statement is
// indistinguishable from a shard rejecting it. The statement is parsed into
// pl itself, so a plan of one node allocates nothing and a drill-down only
// its node list. It is unmemoised: the read tables plan into their entries.
func (p *Planner) PlanInto(pl *Plan, sql string) error {
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

// RouteQuery is PlanInto into a Plan of its own, one allocation.
func (p *Planner) RouteQuery(sql string) (*Plan, error) {
	pl := new(Plan)
	if err := p.PlanInto(pl, sql); err != nil {
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
