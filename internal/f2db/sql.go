package f2db

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"cubefc/internal/cube"
	"cubefc/internal/lru"
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

// Result is the output of a query. NewResult builds every one.
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

// inlineRows is the row count of a one-group resultBlock: 96 bytes of
// Result, 64 of Group and 8 × 32 of rows fill a 416-byte size class.
const inlineRows = 8

type resultBlock struct {
	res  Result
	grp  [1]Group
	rows [inlineRows]QueryRow
}

// NewResult returns a Result of groups zero Groups and rows zero rows for
// the caller to carve into their capacity-capped Rows. One group of up to
// inlineRows rows is one object, as a Plan holds a one-node plan's slices;
// any other shape is three: the Result, its Groups and the rows.
func NewResult(groups, rows int) (*Result, []QueryRow) {
	if groups == 1 && rows <= inlineRows {
		b := new(resultBlock)
		b.res.Groups = b.grp[:]
		return &b.res, b.rows[:rows:rows]
	}
	return &Result{Groups: make([]Group, groups)}, make([]QueryRow, rows)
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
// Statements go through the read table (an lru.Table, DESIGN.md §6) keyed
// by their NormalizeSQL text. Its entry holds the statement's plan, which
// depends only on immutable engine state, so a recurring text never
// re-parses; for an AS OF statement it also holds the forecasts of every
// group, stamped with the generation they were derived at. A hit builds the
// Result from them without taking any engine lock. A miss derives them
// under the shared read lock and fills the entry; a derivation that needs a
// lazy model re-estimation takes the maintenance lock and derives again
// (see ForecastNode). Every call returns a Result of its own.
func (db *DB) Query(sql string) (*Result, error) {
	start, key := time.Now(), ""
	if db.table != nil {
		key = NormalizeSQL(sql)
	}
	ent, ans, hit, err := db.lookup(key, sql)
	if err != nil {
		return nil, err
	}
	plan := &ent.Plan
	if !plan.Forecast {
		db.mu.RLock()
		defer db.mu.RUnlock()
		return db.history(plan), nil
	}
	if !hit {
		if ans, err = db.derive(key, ent); err != nil {
			return nil, err
		}
	}
	res := db.forecastResult(plan, ans)
	db.recordForecasts(plan.Nodes, time.Since(start))
	return res, nil
}

// lookup returns the statement's table entry and its answer when that is
// current. With the table off it plans into an entry of its own.
func (db *DB) lookup(key, sql string) (ent *lru.Entry[Plan, answer], ans answer, hit bool, err error) {
	if db.table == nil {
		ent = new(lru.Entry[Plan, answer])
		return ent, ans, false, db.planInto(&ent.Plan, sql)
	}
	return db.table.Lookup(key, func(p *Plan) error {
		if err := db.planInto(p, sql); err != nil {
			return err
		}
		db.met.planMisses.Add(1)
		return nil
	})
}

// NormalizeSQL canonicalizes a statement text for cache keying: runs of
// whitespace between tokens collapse to single spaces so reformatting a
// query does not defeat the cache. String literals are copied verbatim, by
// the lexer's own rule (literalEnd): 'New  York' and 'New York' are two
// members. Case is preserved —
// member values are case-sensitive and folding keywords only would cost
// more than the rare duplicate entry.
//
// Statements already in canonical form — the overwhelmingly common case for
// programmatic clients replaying identical texts — are returned as-is
// without allocating. Only ASCII whitespace is collapsed; exotic Unicode
// spaces merely key separately, a duplicate cache entry, not an error.
//
// It is exported because it is the single keying function for every
// statement table in the system: the engine's read table here and the
// cluster coordinator's (internal/coord) key by the same normalized text,
// so the two tiers can never disagree on whether two statements are "the
// same".
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

// planInto plans a statement into pl and renders its node keys as substrings
// of one string, held in pl's own array for one node. A builder never
// rewrites its bytes, so a key taken as written stays right if it regrows.
func (db *DB) planInto(pl *Plan, sql string) error {
	if err := db.planner.PlanInto(pl, sql); err != nil {
		return err
	}
	pl.keys = slices.Grow(pl.oneKey[:0], len(pl.Nodes))[:len(pl.Nodes)]
	var keyBuf [64]byte
	var b strings.Builder
	for i, id := range pl.Nodes {
		key := db.graph.AppendKey(keyBuf[:0], id)
		if i == 0 { // sibling keys differ only in one member value
			b.Grow(len(key) + (len(key)+8)*(len(pl.Nodes)-1))
		}
		b.Write(key)
		pl.keys[i] = b.String()[b.Len()-len(key):]
	}
	return nil
}

// answer is an AS OF statement's derived forecasts: per group, Plan.stride
// values — h point forecasts, then under WITH INTERVAL h lower and h upper
// bounds. origin is the time index of the first step. An answer in the
// read table is shared by every hit and never written.
type answer struct {
	origin int
	vals   []float64
}

// stride is the number of derived values per group of a forecast plan.
func (pl *Plan) stride() int {
	if pl.stmt.interval > 0 {
		return 3 * pl.horizon
	}
	return pl.horizon
}

// derive computes a forecast statement's answer under the shared lock,
// through the entry's fill when the table is on. A source model awaiting
// re-estimation drops the lock, re-fits under maint and derives again.
// That statement counts one bypass and no miss: each of its fetches takes
// back the miss the fill counted before it.
func (db *DB) derive(key string, ent *lru.Entry[Plan, answer]) (answer, error) {
	fetch := func(retry bool) (answer, error) {
		db.mu.RLock()
		defer db.mu.RUnlock()
		if db.table == nil {
			return db.deriveAnswer(&ent.Plan)
		}
		return db.table.Fill(key, ent, func() (answer, error) {
			ans, err := db.deriveAnswer(&ent.Plan)
			if retry || err == errNeedsReestimate {
				db.met.fcMisses.Add(-1)
			}
			return ans, err
		})
	}
	ans, err := fetch(false)
	if err == errNeedsReestimate {
		db.met.fcBypasses.Add(1)
		db.maint.Lock()
		defer db.maint.Unlock()
		if err = db.refitFor(ent.Plan.Nodes); err == nil {
			ans, err = fetch(true)
		}
	}
	return ans, err
}

// deriveAnswer derives every group of a forecast plan into one allocation,
// which also holds the source forecasts. The caller holds the shared lock,
// so every group belongs to one time point.
func (db *DB) deriveAnswer(plan *Plan) (answer, error) {
	h, stride := plan.horizon, plan.stride()
	srcs := 0
	for _, id := range plan.Nodes {
		srcs = max(srcs, len(db.cfg.Schemes[id].Sources))
	}
	n := stride * len(plan.Nodes)
	buf := make([]float64, n+srcs*h)
	for i, id := range plan.Nodes {
		if err := db.deriveInterval(buf[i*stride:(i+1)*stride], buf[n:], id, h, plan.stmt.interval); err != nil {
			return answer{}, err
		}
	}
	return answer{origin: db.graph.Length, vals: buf[:n:n]}, nil
}

// forecastResult builds a forecast statement's Result from its answer, the
// rows of all groups carved from one slab. It reads only the plan, the
// answer and the immutable graph structure, so it needs no engine lock.
func (db *DB) forecastResult(plan *Plan, ans answer) *Result {
	h, stride := plan.horizon, plan.stride()
	res, slab := NewResult(len(plan.Nodes), h*len(plan.Nodes))
	res.Node, res.NodeKey, res.Forecast = plan.Nodes[0], plan.keys[0], true
	for i, id := range plan.Nodes {
		rows, v, scale := slab[i*h:(i+1)*h:(i+1)*h], ans.vals[i*stride:(i+1)*stride], db.scale(&plan.stmt, id)
		for j := range rows {
			rows[j] = QueryRow{T: ans.origin + j, Value: v[j] * scale}
			if stride > h {
				rows[j].Lo, rows[j].Hi = v[h+j]*scale, v[2*h+j]*scale
			}
		}
		res.Groups[i] = Group{Node: id, NodeKey: plan.keys[i], Member: plan.member(db.graph, id), Rows: rows}
	}
	res.Rows = res.Groups[0].Rows
	return res
}

// history answers an EXPLAIN, or a statement without AS OF with the stored
// history of every group, under the caller's shared lock.
func (db *DB) history(plan *Plan) *Result {
	groups, per := len(plan.Nodes), db.graph.Length
	if plan.Explain {
		groups = 0
	}
	res, slab := NewResult(groups, per*groups)
	res.Node, res.NodeKey, res.Plan = plan.Nodes[0], plan.keys[0], db.explainNode(plan.Nodes[0])
	if plan.Explain {
		return res
	}
	for i, id := range plan.Nodes {
		rows, scale := slab[i*per:(i+1)*per:(i+1)*per], db.scale(&plan.stmt, id)
		for t, v := range db.graph.Node(id).Series.Values[:per] {
			rows[t] = QueryRow{T: t, Value: v * scale}
		}
		res.Groups[i] = Group{Node: id, NodeKey: plan.keys[i], Member: plan.member(db.graph, id), Rows: rows}
	}
	res.Rows = res.Groups[0].Rows
	return res
}

// scale is the factor of a node's rows: the AVG aggregate divides the SUM
// values by the number of base series the node covers.
func (db *DB) scale(stmt *selectStmt, id int) float64 {
	if stmt.agg == "avg" {
		return 1 / float64(db.baseCounts[id])
	}
	return 1
}

// explainNode renders the derivation plan of a node.
func (db *DB) explainNode(id int) string {
	sc, ok := db.cfg.Scheme(id)
	if !ok {
		return "no scheme assigned"
	}
	keys := make([]string, len(sc.Sources))
	for i, s := range sc.Sources {
		keys[i] = db.graph.KeyOf(s)
	}
	return fmt.Sprintf("%s from [%s] weight %.6f", sc.Kind, strings.Join(keys, ", "), sc.K)
}

// resolve rewrites the plan's parsed SELECT into the graph nodes it
// describes (Section V: "a query is rewritten to the referenced node of the
// time series graph"), Nodes, and the grouped dimension, which holds each
// group's member. The WHERE clause becomes a graph coordinate: every
// predicate attribute must name a hierarchy level of some dimension;
// unconstrained dimensions aggregate to ALL.
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
	pl.groupDim = groupDim
	if groupDim < 0 {
		id, ok := g.LookupCoord(coord)
		if !ok {
			return fmt.Errorf("f2db: no time series for %s", coord.Key(dims))
		}
		pl.oneNode[0] = id
		pl.Nodes = pl.oneNode[:]
		return nil
	}
	// The members are the descendants, at the requested level, of the
	// coordinate with the grouped dimension at ALL: walk that dimension's
	// child edges down, once to count them and once into their one list.
	var ids []int
	if top, ok := g.LookupCoord(coord); ok {
		levels := dims[groupDim].AllLevel() - groupLvl
		_, n := descend(g, nil, top, groupDim, levels)
		ids, _ = descend(g, make([]int, 0, n), top, groupDim, levels)
	}
	if len(ids) == 0 {
		return fmt.Errorf("f2db: no time series match GROUP BY %s", stmt.groupLevel)
	}
	slices.SortFunc(ids, func(a, b int) int {
		return strings.Compare(g.CellOf(a, groupDim).Value, g.CellOf(b, groupDim).Value)
	})
	pl.Nodes = ids
	return nil
}

// descend appends to ids, while it has room, the nodes levels child edges
// below id along dimension d, and returns ids and the number of those nodes.
func descend(g *cube.Graph, ids []int, id, d, levels int) ([]int, int) {
	n := 0
	for _, kid := range g.ChildrenAlong(id, d) {
		k := 1
		if levels > 1 {
			ids, k = descend(g, ids, int(kid), d, levels-1)
		} else if len(ids) < cap(ids) {
			ids = append(ids, int(kid))
		}
		n += k
	}
	return ids, n
}

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
