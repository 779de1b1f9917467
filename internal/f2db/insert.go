package f2db

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"

	"cubefc/internal/cube"
)

// The SQL INSERT pipeline (DESIGN.md §6): a scanner that walks the statement
// row by row over the pull lexer, a resolver that maps each row straight to
// its base node ID through the graph's key-free lookup, and the pooled
// scratch both work in, so nothing is allocated per row. The engine (Exec,
// Insert) and the engine-free Planner (RouteExecNodes) run this one pipeline:
// a coordinator accepts, orders and rejects rows exactly as its shards do.

// insertScanner yields the rows of
//
//	INSERT INTO <table> VALUES ('<member1>', ..., <measure>)[, (...), ...]
//
// one at a time. Purely syntactic: a row is any number of member literals
// and exactly one numeric measure; the resolver checks arity.
type insertScanner struct {
	lex   lexer
	table string
	rows  int // rows yielded so far
	// The row just yielded; members is overwritten by the next call to row.
	members []string
	value   float64
}

// open starts a scan (keeping the members slice), consuming up to VALUES.
func (s *insertScanner) open(sql string) error {
	*s = insertScanner{lex: lexer{src: sql}, members: s.members[:0]}
	l := &s.lex
	if err := l.expectKw("insert"); err != nil {
		return err
	}
	if err := l.expectKw("into"); err != nil {
		return err
	}
	tbl := l.next()
	if tbl.kind != tokIdent {
		return l.errorf("f2db: expected table name, got %q", tbl.text)
	}
	s.table = tbl.text
	return l.expectKw("values")
}

// row scans the next row into s.members and s.value. ok is false, with a
// nil error, once the statement has ended after at least one row.
func (s *insertScanner) row() (ok bool, err error) {
	l := &s.lex
	if s.rows > 0 {
		if !l.isPunct(",") {
			if t := l.peek(); t.kind != tokEOF {
				return false, l.errorf("f2db: trailing input %q", t.text)
			}
			return false, nil
		}
		l.next()
	}
	if err := l.expectPunct("("); err != nil {
		return false, err
	}
	s.members = s.members[:0]
	haveValue := false
	for {
		t := l.next()
		switch t.kind {
		case tokString:
			if haveValue {
				return false, l.errorf("f2db: member value %q after measure", t.text)
			}
			s.members = append(s.members, t.text)
		case tokIdent:
			if haveValue {
				return false, l.errorf("f2db: second measure %q in row", t.text)
			}
			v, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return false, l.errorf("f2db: expected numeric measure, got %q", t.text)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) { // ParseFloat accepts "NaN" and "Inf"
				return false, l.errorf("f2db: measure %q is not finite", t.text)
			}
			s.value = v
			haveValue = true
		default:
			return false, l.errorf("f2db: unexpected token %q in VALUES", t.text)
		}
		if !l.isPunct(",") {
			break
		}
		l.next()
	}
	if err := l.expectPunct(")"); err != nil {
		return false, err
	}
	if !haveValue {
		return false, l.errorf("f2db: INSERT misses the measure value")
	}
	s.rows++
	return true, nil
}

// baseRow is one resolved INSERT row: a base node and its new value.
type baseRow struct {
	id    int
	value float64
}

// insertScratch is the working set of one INSERT: the scanner, the coordinate
// and key buffer a row is looked up through, the rows resolved so far.
type insertScratch struct {
	scan  insertScanner
	coord cube.Coord
	key   []byte
	rows  []baseRow
}

// Scratches are pooled: a statement allocates nothing in steady state. One
// grown past these caps is dropped, so an idle one pins at most ~66 KiB.
const (
	pooledRows  = 4096 // 64 KiB of resolved rows
	pooledBytes = 1024 // of key buffer, and of members (16 B each)
)

var insertScratchPool = sync.Pool{New: func() any { return new(insertScratch) }}

func getInsertScratch() *insertScratch { return insertScratchPool.Get().(*insertScratch) }

// release empties the scratch, dropping every reference into the statement
// text, and returns it to the pool.
func (sc *insertScratch) release() {
	members := sc.scan.members[:cap(sc.scan.members)]
	if cap(sc.rows) > pooledRows || cap(sc.key) > pooledBytes || len(members) > pooledBytes/16 {
		return
	}
	clear(members)
	clear(sc.coord)
	sc.scan, sc.rows = insertScanner{members: members}, sc.rows[:0]
	insertScratchPool.Put(sc)
}

// resolveBase maps a row's finest-level member values to its base node ID,
// lock-free: the coordinate index is immutable after construction. Members
// past the last dimension are ignored, as they always were.
func (sc *insertScratch) resolveBase(g *cube.Graph, members []string) (int, error) {
	n := len(g.Dims)
	if len(members) < n {
		return 0, fmt.Errorf("f2db: insert needs %d member values, got %d", n, len(members))
	}
	if cap(sc.coord) < n {
		sc.coord = make(cube.Coord, n)
	}
	sc.coord = sc.coord[:n]
	for d := range sc.coord {
		sc.coord[d] = cube.Cell{Level: 0, Value: members[d]}
	}
	id, ok, key := g.LookupCoord(sc.coord, sc.key)
	sc.key = key
	if !ok || !g.IsBase(id) {
		return 0, fmt.Errorf("f2db: unknown base series %v", members)
	}
	return id, nil
}

// resolve scans an INSERT and resolves every row, in text order, into
// sc.rows. Nothing has been applied when it returns: an error anywhere
// rejects the statement whole. Repeated rows are rejectDuplicates' job.
func (sc *insertScratch) resolve(g *cube.Graph, sql string) error {
	if err := sc.scan.open(sql); err != nil {
		return err
	}
	for {
		ok, err := sc.scan.row()
		if err != nil || !ok {
			return err
		}
		id, err := sc.resolveBase(g, sc.scan.members)
		if err != nil {
			return err
		}
		sc.rows = append(sc.rows, baseRow{id, sc.scan.value})
	}
}

// sortRows orders rows by node ID, the order they fill the pending column
// in, and reports whether some node occurs twice.
func sortRows(rows []baseRow) (dup bool) {
	slices.SortFunc(rows, func(a, b baseRow) int { return a.id - b.id })
	for i := 1; i < len(rows); i++ {
		if rows[i].id == rows[i-1].id {
			return true
		}
	}
	return false
}

// rejectDuplicates sorts the resolved rows by node ID (statement order is
// lost) and rejects a statement that names one base series twice. Found
// on the sorted rows, after everything scanned and resolved, a repeat is
// reported after any other defect. The error names the first row, in text
// order, that repeats an earlier one; finding it re-scans the statement
// with a set — the error path may allocate, rows need not carry members.
func (sc *insertScratch) rejectDuplicates(g *cube.Graph) error {
	if !sortRows(sc.rows) {
		return nil
	}
	seen := make(map[int]bool, len(sc.rows))
	_ = sc.scan.open(sc.scan.lex.src) // scanned and resolved cleanly a moment ago
	for ok, _ := sc.scan.row(); ok; ok, _ = sc.scan.row() {
		id, _ := sc.resolveBase(g, sc.scan.members)
		if seen[id] {
			return fmt.Errorf("f2db: duplicate row for base series %v in INSERT", sc.scan.members)
		}
		seen[id] = true
	}
	return fmt.Errorf("f2db: duplicate row in INSERT") // unreachable: the re-scan sees what the scan saw
}
