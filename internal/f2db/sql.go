package f2db

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"cubefc/internal/cube"
)

// This file implements the forecast-query processor of Section V: a small
// SQL dialect with the paper's AS OF extension,
//
//	SELECT time, sales      FROM facts WHERE product = 'P4' AND city = 'C4'
//	                        AS OF now() + '1 day'
//	SELECT time, SUM(sales) FROM facts WHERE product = 'P4' AND region = 'R2'
//	                        GROUP BY time AS OF now() + '1 day'
//
// A query is rewritten to the referenced node of the time-series graph;
// the executor loads the necessary models and derives the forecast without
// accessing base data. Queries without AS OF return the stored history of
// the node.

// QueryRow is one output row: the time index of the observation or
// forecast step and its (possibly aggregated) measure value. Lo/Hi carry
// the prediction interval when the query requested one (WITH INTERVAL n).
type QueryRow struct {
	T      int
	Value  float64
	Lo, Hi float64
}

// Group is the result for one hyper-graph node of a (possibly multi-node)
// query. A query with GROUP BY over a hierarchy level describes several
// nodes (Section II-A: "a query describes one or several nodes"), one per
// member value at that level.
type Group struct {
	// Node is the hyper-graph node this group was rewritten to.
	Node int
	// NodeKey is its canonical coordinate key.
	NodeKey string
	// Member is the grouping member value ("" for single-node queries).
	Member string
	// Rows holds the history or forecast values.
	Rows []QueryRow
}

// Result is the output of a query.
type Result struct {
	// Node, NodeKey and Rows describe the first (often only) group, kept
	// as convenience accessors.
	Node    int
	NodeKey string
	Rows    []QueryRow
	// Groups holds all result groups of the query in member order.
	Groups []Group
	// Forecast marks AS OF queries.
	Forecast bool
	// Plan describes the derivation used (EXPLAIN output).
	Plan string
}

// Exec executes a statement that is not a query. Supported:
//
//	INSERT INTO facts VALUES ('<member1>', ..., <measure>)[, (...), ...]
//
// with one member value per dimension in schema order. Inserts are batched
// by the maintenance processor (Section V). The whole statement is scanned
// and resolved (insert.go), then checked against the pending values, before
// any row reaches the pending column, so a malformed, unknown or repeated
// row, or one that repeats a pending value, rejects it whole.
func (db *DB) Exec(sql string) error {
	sc := getInsertScratch()
	defer sc.release()
	if err := sc.resolve(db.graph, sql); err != nil {
		return err
	}
	if len(sc.rows) == 1 {
		return db.InsertBase(sc.rows[0].id, sc.rows[0].value)
	}
	if err := sc.rejectDuplicates(db.graph); err != nil {
		return err
	}
	db.met.batchInserts.Add(1)
	return db.applyRows(sc.rows)
}

// Query parses and executes a (forecast) query. Queries constrained to one
// coordinate return a single group; a GROUP BY over a hierarchy level
// returns one group per member value at that level (drill-down).
//
// Repeated query texts skip the parse and rewrite phases entirely: planning
// (lexing, parsing, node resolution, horizon translation) depends only on
// immutable engine state, so the finished plan is kept in a small LRU keyed
// by the whitespace-normalized query text and shared across goroutines.
//
// Queries execute under the engine's shared read lock and run concurrently
// with each other; only a query that needs a lazy model re-estimation takes
// the maintenance lock and retries (see ForecastNode).
func (db *DB) Query(sql string) (*Result, error) {
	plan, err := db.planQuery(sql)
	if err != nil {
		return nil, err
	}
	db.mu.RLock()
	res, err := db.execPlan(plan, false)
	db.mu.RUnlock()
	if err != errNeedsReestimate {
		return res, err
	}
	db.maint.Lock()
	defer db.maint.Unlock()
	if err := db.refitFor(plan.Nodes); err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.execPlan(plan, true)
}

// NormalizeSQL canonicalizes a statement text for cache keying: runs of
// whitespace between tokens collapse to single spaces so reformatting a
// query does not defeat the cache. String literals are copied verbatim, by
// the lexer's own rule (literalEnd): 'New  York' and 'New York' are two
// members, and the normalized text is itself planned (a snapshot's plan
// warm-up), so it must mean what the original meant. Case is preserved —
// member values are case-sensitive and folding keywords only would cost
// more than the rare duplicate entry.
//
// Statements already in canonical form — the overwhelmingly common case for
// programmatic clients replaying identical texts — are returned as-is
// without allocating. Only ASCII whitespace is collapsed; exotic Unicode
// spaces merely key separately, a duplicate cache entry, not an error.
//
// It is exported because it is the single keying function for every
// statement table in the system: the engine's plan cache here and the
// cluster coordinator's read table (internal/coord) key by the same
// normalized text, so the two tiers can never disagree on whether two
// statements are "the same".
func NormalizeSQL(sql string) string {
	for i := 0; i < len(sql); i++ {
		switch sql[i] {
		case '\'':
			end := literalEnd(sql, i)
			if end < 0 {
				return sql // unterminated: no statement, nothing to key
			}
			i = end
		case '\t', '\n', '\v', '\f', '\r':
			return collapseSpace(sql)
		case ' ':
			if i == 0 || i == len(sql)-1 || sql[i+1] == ' ' {
				return collapseSpace(sql)
			}
		}
	}
	return sql
}

// collapseSpace is NormalizeSQL's slow path: one space between tokens, none
// at either end, every literal untouched.
func collapseSpace(sql string) string {
	var b strings.Builder
	b.Grow(len(sql))
	gap := false // whitespace seen since the last byte written
	for i := 0; i < len(sql); i++ {
		c := sql[i]
		switch c {
		case ' ', '\t', '\n', '\v', '\f', '\r':
			gap = b.Len() > 0
			continue
		}
		if gap {
			b.WriteByte(' ')
			gap = false
		}
		if c != '\'' {
			b.WriteByte(c)
			continue
		}
		end := literalEnd(sql, i)
		if end < 0 {
			end = len(sql) - 1
		}
		b.WriteString(sql[i : end+1])
		i = end
	}
	return b.String()
}

// planQuery returns the resolved plan for a query text, from the plan cache
// when possible. Parsing and node resolution dominate the SQL query cost over
// the forecast derivation, and both depend only on immutable engine state —
// the query text, the graph structure and the step duration — so a plan is
// cached without any invalidation protocol. Only successfully planned
// statements are cached; error results are recomputed (they are not on the
// hot path).
func (db *DB) planQuery(sql string) (*Plan, error) {
	var key string
	if db.plans != nil {
		key = NormalizeSQL(sql)
		db.planMu.Lock()
		plan, ok := db.plans.Get(key)
		db.planMu.Unlock()
		if ok {
			db.met.planHits.Add(1)
			return plan, nil
		}
	}
	plan, err := db.planner.plan(sql)
	if err != nil {
		return nil, err
	}
	plan.keys = db.renderKeys(plan.oneKey[:0], plan.Nodes)
	if db.plans != nil {
		db.met.planMisses.Add(1)
		db.planMu.Lock()
		evicted := db.plans.Put(key, plan)
		db.planMu.Unlock()
		if evicted {
			db.met.planEvictions.Add(1)
		}
	}
	return plan, nil
}

// renderKeys renders the nodes' coordinate keys into one buffer and returns
// them, in keys' memory when it has room, as substrings of the one string
// made from it: a drill-down plan pays for its keys once, not once per group.
func (db *DB) renderKeys(keys []string, nodes []int) []string {
	keys = slices.Grow(keys[:0], len(nodes))[:len(nodes)]
	var endBuf [64]int
	var keyBuf [64]byte
	ends, buf := endBuf[:0], keyBuf[:0]
	if len(nodes) > len(endBuf) {
		ends = make([]int, 0, len(nodes))
	}
	for i, id := range nodes {
		buf = db.graph.CoordOf(id).AppendKey(buf, db.graph.Dims)
		if i == 0 {
			// Sibling keys differ only in one member value.
			buf = slices.Grow(buf, (len(buf)+8)*(len(nodes)-1))
		}
		ends = append(ends, len(buf))
	}
	all, start := string(buf), 0
	for i, end := range ends {
		keys[i], start = all[start:end], end
	}
	return keys
}

// execPlan executes a resolved plan under the caller's shared lock; retry
// as forecastIntervalLocked. Every group is built under that one lock hold,
// so a drill-down's groups all belong to one time point; their rows are
// carved from one slab.
func (db *DB) execPlan(plan *Plan, retry bool) (*Result, error) {
	stmt := &plan.stmt
	res := &Result{Node: plan.Nodes[0], NodeKey: plan.keys[0]}
	if stmt.explain || stmt.horizon == "" {
		res.Plan = db.explainNode(plan.Nodes[0])
	}
	if stmt.explain {
		return res, nil
	}
	res.Forecast = plan.Forecast
	per := db.graph.Length
	if plan.Forecast {
		per = plan.horizon
	}
	slab := make([]QueryRow, per*len(plan.Nodes))
	res.Groups = make([]Group, len(plan.Nodes))
	for i, id := range plan.Nodes {
		rows := slab[i*per : (i+1)*per : (i+1)*per]
		if err := db.fillRows(rows, id, stmt, retry); err != nil {
			return nil, err
		}
		res.Groups[i] = Group{Node: id, NodeKey: plan.keys[i], Member: plan.Members[i], Rows: rows}
	}
	res.Rows = res.Groups[0].Rows
	return res, nil
}

// explainNode renders the derivation plan of a node.
func (db *DB) explainNode(id int) string {
	sc, ok := db.cfg.Schemes[id]
	if !ok {
		return "no scheme assigned"
	}
	keys := make([]string, len(sc.Sources))
	for i, s := range sc.Sources {
		keys[i] = db.graph.KeyOf(s)
	}
	return fmt.Sprintf("%s from [%s] weight %.6f", sc.Kind, strings.Join(keys, ", "), sc.K)
}

// fillRows writes the output rows for one node: the stored history for
// historical queries (len(rows) time points), or the derived forecast
// (optionally with prediction intervals) for AS OF queries (len(rows)
// steps). The AVG aggregate divides the SUM values by the number of base
// series covered by the node.
func (db *DB) fillRows(rows []QueryRow, id int, stmt *selectStmt, retry bool) error {
	scale := 1.0
	if stmt.agg == "avg" {
		scale = 1 / float64(db.baseCounts[id])
	}
	if stmt.horizon == "" {
		for i, v := range db.graph.Node(id).Series.Values[:len(rows)] {
			rows[i] = QueryRow{T: i, Value: v * scale}
		}
		return nil
	}
	point, lo, hi, err := db.forecastIntervalLocked(id, len(rows), stmt.interval, retry)
	if err != nil {
		return err
	}
	for i, v := range point {
		rows[i] = QueryRow{T: db.graph.Length + i, Value: v * scale}
		if lo != nil {
			rows[i].Lo = lo[i] * scale
			rows[i].Hi = hi[i] * scale
		}
	}
	return nil
}

// resolve rewrites the plan's parsed SELECT into the graph nodes it
// describes (Section V: "a query is rewritten to the referenced node of the
// time series graph") and the grouping member of each: Nodes and Members.
// The WHERE clause becomes a graph coordinate: every predicate attribute
// must name a hierarchy level of some dimension; unconstrained dimensions
// aggregate to ALL.
// Without a GROUP BY <level> that coordinate is the one described node;
// with it, the named level must belong to a dimension the WHERE clause
// leaves free, and one node per member value at that level is returned,
// member-ordered, found through the skeleton's child index in O(members ×
// depth). Resolution reads only the immutable graph structure — no
// engine, no series, and it materializes nothing on the graph — which
// is what lets a coordinator that holds no data plan with the same code.
// One node of a cube of up to eight dimensions resolves without allocating.
func (pl *Plan) resolve(g *cube.Graph) error {
	stmt := &pl.stmt
	dims := g.Dims
	groupDim, groupLvl := -1, -1
	if stmt.groupLevel != "" {
		for d := range dims {
			if lvl := dims[d].LevelIndex(stmt.groupLevel); lvl >= 0 && lvl < dims[d].AllLevel() {
				groupDim, groupLvl = d, lvl
				break
			}
		}
		if groupDim < 0 {
			return fmt.Errorf("f2db: unknown GROUP BY attribute %q", stmt.groupLevel)
		}
	}
	coord := make(cube.Coord, 0, 8) // on the stack up to eight dimensions
	for d := range dims {
		coord = append(coord, cube.Cell{Level: dims[d].AllLevel()})
	}
	for _, p := range stmt.preds {
		found := false
		for d := range dims {
			lvl := dims[d].LevelIndex(p.attr)
			if lvl < 0 || lvl >= dims[d].AllLevel() {
				continue
			}
			if d == groupDim {
				return fmt.Errorf("f2db: dimension %q is both grouped and constrained", dims[d].Name)
			}
			if coord[d].Level < dims[d].AllLevel() {
				return fmt.Errorf("f2db: dimension %q constrained twice (attribute %q)", dims[d].Name, p.attr)
			}
			coord[d] = cube.Cell{Level: lvl, Value: p.value}
			found = true
			break
		}
		if !found {
			return fmt.Errorf("f2db: unknown attribute %q in WHERE clause", p.attr)
		}
	}
	var buf [64]byte
	if groupDim < 0 {
		id, ok, _ := g.LookupCoord(coord, buf[:0])
		if !ok {
			return fmt.Errorf("f2db: no time series for %s", coord.Key(dims))
		}
		pl.oneNode[0] = id
		pl.Nodes, pl.Members = pl.oneNode[:], pl.oneMember[:]
		return nil
	}
	// The members are the descendants, at the requested level, of the
	// coordinate with the grouped dimension at ALL: walk that dimension's
	// child edges down, one level per edge.
	var ids []int
	if top, ok, _ := g.LookupCoord(coord, buf[:0]); ok {
		ids = []int{top}
	}
	for lvl := dims[groupDim].AllLevel(); lvl > groupLvl && len(ids) > 0; lvl-- {
		var next []int
		for _, id := range ids {
			next = append(next, g.ChildrenAlong(id, groupDim)...)
		}
		ids = next
	}
	if len(ids) == 0 {
		return fmt.Errorf("f2db: no time series match GROUP BY %s", stmt.groupLevel)
	}
	members := make([]string, len(ids))
	for i, id := range ids {
		members[i] = g.CoordOf(id)[groupDim].Value
	}
	sort.Sort(byMember{ids, members})
	pl.Nodes, pl.Members = ids, members
	return nil
}

// byMember sorts parallel node/member slices by member value.
type byMember struct {
	ids     []int
	members []string
}

func (b byMember) Len() int { return len(b.ids) }
func (b byMember) Swap(i, j int) {
	b.ids[i], b.ids[j] = b.ids[j], b.ids[i]
	b.members[i], b.members[j] = b.members[j], b.members[i]
}
func (b byMember) Less(i, j int) bool { return b.members[i] < b.members[j] }

// maxHorizon bounds an AS OF horizon, in steps: a query's rows are
// allocated before they are derived.
const maxHorizon = 10_000

// parseHorizonIn translates an AS OF interval like "1 day" or "6 steps"
// into a number of forecast steps using the given step duration. It reads
// the interval as strings.Fields and strings.ToLower would, without their
// copies, and rejects a horizon of more than maxHorizon steps.
func parseHorizonIn(step time.Duration, interval string) (int, error) {
	var f [3]string // a third field makes the interval malformed
	n, rest := 0, interval
	for ; n < len(f); n++ {
		if rest = strings.TrimLeftFunc(rest, unicode.IsSpace); rest == "" {
			break
		}
		end := strings.IndexFunc(rest, unicode.IsSpace)
		if end < 0 {
			end = len(rest)
		}
		f[n], rest = rest[:end], rest[end:]
	}
	if n != 2 {
		return 0, fmt.Errorf("f2db: malformed AS OF interval %q (want '<n> <unit>')", interval)
	}
	count, err := strconv.Atoi(f[0])
	if err != nil || count <= 0 {
		return 0, fmt.Errorf("f2db: malformed AS OF count %q", f[0])
	}
	var lower [len("quarters")]byte // the longest unit; a longer field is none
	unit := lower[:0]
	for _, r := range f[1] {
		if r = unicode.ToLower(r); r >= utf8.RuneSelf || len(unit) == len(lower) {
			unit = nil
			break
		}
		unit = append(unit, byte(r))
	}
	if len(unit) > 0 && unit[len(unit)-1] == 's' {
		unit = unit[:len(unit)-1]
	}
	var d time.Duration
	switch string(unit) {
	case "step":
	case "hour":
		d = time.Hour
	case "day":
		d = 24 * time.Hour
	case "week":
		d = 7 * 24 * time.Hour
	case "month":
		d = 30 * 24 * time.Hour
	case "quarter":
		d = 91 * 24 * time.Hour
	case "year":
		d = 365 * 24 * time.Hour
	default:
		return 0, fmt.Errorf("f2db: unknown AS OF unit %q", f[1])
	}
	steps := float64(count)
	if d != 0 {
		steps = steps * float64(d) / float64(step)
	}
	if steps > maxHorizon {
		return 0, fmt.Errorf("f2db: AS OF interval %q is more than %d steps", interval, maxHorizon)
	}
	return max(int(steps), 1), nil
}

// --- parsing ------------------------------------------------------------

type predicate struct {
	attr  string
	value string
}

type selectStmt struct {
	list       string // the select list as written (validated, not interpreted)
	table      string
	preds      []predicate
	predBuf    [4]predicate // backs preds for up to four predicates
	groupBy    bool         // GROUP BY time present
	groupLevel string       // GROUP BY <hierarchy level> (drill-down), "" if none
	agg        string       // "sum" (default), "avg"
	horizon    string       // AS OF interval text, "" for historical queries
	interval   float64      // WITH INTERVAL <percent> confidence, 0 = off
	explain    bool
}

type token struct {
	kind tokenKind
	text string
}

type tokenKind int

const (
	tokIdent tokenKind = iota
	tokString
	tokPunct
	tokEOF
	tokErr // malformed input; lexer.err says what
)

// lexer is the dialect's one tokenizer, under the query parser and the
// INSERT scanner alike: a cursor over the statement text with one token of
// look-ahead. Tokens are substrings; nothing is materialized. A token is
// scanned only when the parser first looks at it, so a statement with
// several defects reports the first in text order, lexical or not.
type lexer struct {
	src   string
	pos   int   // offset of the first unscanned byte
	tok   token // the look-ahead token, valid while ahead
	ahead bool
	err   error // the lexical error behind a tokErr token
}

func (l *lexer) peek() token {
	if !l.ahead {
		l.tok, l.ahead = l.scan(), true
	}
	return l.tok
}

func (l *lexer) next() token {
	t := l.peek()
	l.ahead = false
	return t
}

// literalEnd returns the offset of the quote closing the literal that opens
// at s[i], or -1. The dialect has no escape: a literal runs to the next
// quote byte (which never occurs inside a multi-byte UTF-8 sequence).
func literalEnd(s string, i int) int {
	j := strings.IndexByte(s[i+1:], '\'')
	if j < 0 {
		return -1
	}
	return i + 1 + j
}

func isIdentRune(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' || c == '.'
}

// scan reads the token at l.pos, decoding UTF-8 outside literals: names and
// bare members may be non-ASCII, a stray symbol is reported as its rune.
func (l *lexer) scan() token {
	s := l.src
	for l.pos < len(s) {
		i := l.pos
		c, w := utf8.DecodeRuneInString(s[i:])
		switch {
		case unicode.IsSpace(c):
			l.pos += w
		case c == '\'':
			end := literalEnd(s, i)
			if end < 0 {
				l.err = fmt.Errorf("f2db: unterminated string literal at offset %d", i)
				return token{kind: tokErr}
			}
			l.pos = end + 1
			return token{tokString, s[i+1 : end]}
		case c == ',' || c == '(' || c == ')' || c == '=' || c == '+' || c == '*':
			l.pos++
			return token{tokPunct, s[i : i+1]}
		case isIdentRune(c):
			j := i + w
			for j < len(s) {
				c, w = utf8.DecodeRuneInString(s[j:])
				if !isIdentRune(c) {
					break
				}
				j += w
			}
			l.pos = j
			return token{tokIdent, s[i:j]}
		default:
			l.err = fmt.Errorf("f2db: unexpected character %q at offset %d", c, i)
			return token{kind: tokErr}
		}
	}
	return token{kind: tokEOF}
}

// errorf builds a parse error about the token just examined: the lexical
// error if that token is a tokErr, which no production accepts.
func (l *lexer) errorf(format string, args ...any) error {
	if l.err != nil {
		return l.err
	}
	return fmt.Errorf(format, args...)
}

func (l *lexer) isPunct(ch string) bool {
	t := l.peek()
	return t.kind == tokPunct && t.text == ch
}

func (l *lexer) isKw(kw string) bool {
	t := l.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (l *lexer) expectKw(kw string) error {
	if !l.isKw(kw) {
		return l.errorf("f2db: expected %s, got %q", strings.ToUpper(kw), l.peek().text)
	}
	l.next()
	return nil
}

func (l *lexer) expectPunct(ch string) error {
	if !l.isPunct(ch) {
		return l.errorf("f2db: expected %q, got %q", ch, l.peek().text)
	}
	l.next()
	return nil
}

// parseQuery parses an optional EXPLAIN prefix followed by a SELECT with
// the AS OF extension into stmt, which must not move while it is in use:
// its predicates live in its own predBuf. Every field is a substring of sql
// or a constant, so parsing allocates nothing but its errors.
func parseQuery(sql string, stmt *selectStmt) error {
	p := lexer{src: sql}
	*stmt = selectStmt{}
	stmt.preds = stmt.predBuf[:0]
	if p.isKw("explain") {
		p.next()
		stmt.explain = true
	}
	if err := p.expectKw("select"); err != nil {
		return err
	}
	// Select list: idents, optional aggregate function call, or *. After
	// next, p.pos is the end of the token just consumed.
	start := -1
	for {
		t := p.next()
		end := p.pos
		if start < 0 {
			start = end - len(t.text)
		}
		switch {
		case t.kind == tokPunct && t.text == "*":
		case t.kind == tokIdent:
			if p.isPunct("(") {
				p.next()
				if inner := p.next(); inner.kind != tokIdent {
					return p.errorf("f2db: expected column inside %s(...)", t.text)
				}
				if err := p.expectPunct(")"); err != nil {
					return err
				}
				end = p.pos
				switch {
				case strings.EqualFold(t.text, "sum"):
					stmt.agg = "sum"
				case strings.EqualFold(t.text, "avg"):
					stmt.agg = "avg"
				default:
					return p.errorf("f2db: unsupported aggregate %q (SUM and AVG)", t.text)
				}
			}
		default:
			return p.errorf("f2db: unexpected token %q in select list", t.text)
		}
		stmt.list = sql[start:end]
		if p.isPunct(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectKw("from"); err != nil {
		return err
	}
	tbl := p.next()
	if tbl.kind != tokIdent {
		return p.errorf("f2db: expected table name, got %q", tbl.text)
	}
	stmt.table = tbl.text

	if p.isKw("where") {
		p.next()
		for {
			attr := p.next()
			if attr.kind != tokIdent {
				return p.errorf("f2db: expected attribute in WHERE, got %q", attr.text)
			}
			if err := p.expectPunct("="); err != nil {
				return err
			}
			val := p.next()
			if val.kind != tokString && val.kind != tokIdent {
				return p.errorf("f2db: expected value for %s, got %q", attr.text, val.text)
			}
			stmt.preds = append(stmt.preds, predicate{attr: attr.text, value: val.text})
			if p.isKw("and") {
				p.next()
				continue
			}
			break
		}
	}

	if p.isKw("group") {
		p.next()
		if err := p.expectKw("by"); err != nil {
			return err
		}
		for {
			col := p.next()
			if col.kind != tokIdent {
				return p.errorf("f2db: expected column in GROUP BY, got %q", col.text)
			}
			if strings.EqualFold(col.text, "time") {
				stmt.groupBy = true
			} else if stmt.groupLevel == "" {
				stmt.groupLevel = col.text
			} else {
				return p.errorf("f2db: at most one non-time GROUP BY attribute is supported, got %q and %q", stmt.groupLevel, col.text)
			}
			if p.isPunct(",") {
				p.next()
				continue
			}
			break
		}
	}

	if p.isKw("as") {
		p.next()
		if err := p.expectKw("of"); err != nil {
			return err
		}
		if err := p.expectKw("now"); err != nil {
			return err
		}
		if err := p.expectPunct("("); err != nil {
			return err
		}
		if err := p.expectPunct(")"); err != nil {
			return err
		}
		if err := p.expectPunct("+"); err != nil {
			return err
		}
		iv := p.next()
		if iv.kind != tokString {
			return p.errorf("f2db: expected interval literal after now() +, got %q", iv.text)
		}
		stmt.horizon = iv.text
	}
	if p.isKw("with") {
		p.next()
		if err := p.expectKw("interval"); err != nil {
			return err
		}
		lvl := p.next()
		if lvl.kind != tokIdent {
			return p.errorf("f2db: expected confidence level after WITH INTERVAL, got %q", lvl.text)
		}
		// Written so that NaN fails it too.
		v, err := strconv.ParseFloat(lvl.text, 64)
		if err != nil || !(v > 0 && v < 100) {
			return p.errorf("f2db: WITH INTERVAL wants a percentage in (0, 100), got %q", lvl.text)
		}
		stmt.interval = v
	}
	if p.peek().kind != tokEOF {
		return p.errorf("f2db: trailing input %q", p.peek().text)
	}
	return nil
}
