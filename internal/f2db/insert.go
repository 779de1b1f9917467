package f2db

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"cubefc/internal/cube"
)

// The SQL INSERT pipeline (DESIGN.md §6): a scanner that walks the statement
// row by row over the pull lexer, a resolver that maps each row straight to
// its base node ID through the graph's key-free lookup, and the pooled
// scratch both work in, so nothing is allocated per row. The engine (Exec,
// Insert) and the engine-free Planner (Fill) run this one pipeline: a
// coordinator accepts, orders and rejects rows exactly as its shards do.

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
	// bases is the base count of the graph last resolved against: a whole
	// time point, grown by doubling, stays pooled.
	bases int
}

// Scratches are pooled: a statement allocates nothing in steady state. One
// grown past these caps is dropped, so an idle one pins at most ~66 KiB
// beyond the rows of two time points.
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
	if cap(sc.rows) > max(pooledRows, 2*sc.bases) || cap(sc.key) > pooledBytes || len(members) > pooledBytes/16 {
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
	sc.bases = len(g.BaseIDs)
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

// Batch is the time point being collected, as the dense column it becomes:
// column[i] is the next observation of base node BaseIDs[i], held once
// present[i] is set; total counts the values held (read lock-free by
// Stats). Its rule, fill, is the maintenance processor's (Section V), run by
// the engine and by a cluster coordinator (Planner.Fill) alike, so both
// decide every duplicate and straddling row, with the same error text. The
// holder's lock guards it.
type Batch struct {
	g       *cube.Graph
	column  []float64
	present []bool
	total   atomic.Int64
}

// NewBatch returns an empty batch over the planner's graph.
func (p *Planner) NewBatch() *Batch {
	n := len(p.g.BaseIDs)
	return &Batch{g: p.g, column: make([]float64, n), present: make([]bool, n)}
}

// fill lands one statement's rows — distinct base nodes, ascending — in the
// empty slots in order. Each complete column goes to complete (to be read,
// not retained), and the batch empties once complete returns nil: the rows
// after that point land in the next time point, and a column complete
// failed on stays, to be completed first by the next statement. A row
// before the first such point whose slot is taken repeats a pending value
// and rejects the statement before any row lands. landed counts the rows
// that landed.
func (b *Batch) fill(rows []baseRow, complete func(column []float64) error) (landed int, err error) {
	n := int64(len(b.column))
	for {
		if b.total.Load() == n {
			if err := complete(b.column); err != nil {
				return landed, err
			}
			b.release()
		}
		if landed == len(rows) {
			return landed, nil
		}
		for i, free := 0, n-b.total.Load(); landed == 0 && i < len(rows) && free > 0; i, free = i+1, free-1 {
			if ord, _ := b.g.BaseOrdinal(rows[i].id); b.present[ord] { // callers resolved rows[i].id as a base node
				return 0, fmt.Errorf("f2db: duplicate insert for base node %d in current batch", rows[i].id)
			}
		}
		for ; landed < len(rows) && b.total.Load() < n; landed++ {
			ord, _ := b.g.BaseOrdinal(rows[landed].id)
			b.column[ord], b.present[ord] = rows[landed].value, true
			b.total.Add(1)
		}
	}
}

// release empties the batch: it clears the presence marks and the count.
func (b *Batch) release() {
	clear(b.present)
	b.total.Store(0)
}

// Fill runs one INSERT against a batch held outside any engine as Exec runs
// it against the engine's own: resolved through the engine's pipeline,
// then filled under mu, complete receiving every column it completes. A
// rejection is the engine's error, byte for byte, and changes nothing. rows
// counts the rows that landed.
func (p *Planner) Fill(b *Batch, sql string, mu sync.Locker, complete func(column []float64) error) (rows int, err error) {
	sc := getInsertScratch()
	defer sc.release()
	if err := sc.resolve(p.g, sql); err != nil {
		return 0, err
	}
	if err := sc.rejectDuplicates(p.g); err != nil {
		return 0, err
	}
	mu.Lock()
	defer mu.Unlock()
	return b.fill(sc.rows, complete)
}

// AppendInsert renders one multi-row INSERT in the engine's dialect: the
// base nodes ids in the order given, with the parallel values in their
// shortest exact decimal form.
func AppendInsert(dst []byte, g *cube.Graph, ids []int, values []float64) []byte {
	dst = append(dst, "INSERT INTO facts VALUES "...)
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, '(')
		for d := range g.Dims {
			dst = append(dst, '\'')
			dst = append(dst, g.CellOf(id, d).Value...)
			dst = append(dst, "', "...)
		}
		dst = strconv.AppendFloat(dst, values[i], 'f', -1, 64)
		dst = append(dst, ')')
	}
	return dst
}

// AppendTimePoint renders a complete column as one INSERT of every base
// series, in BaseIDs order.
func (p *Planner) AppendTimePoint(dst []byte, column []float64) []byte {
	return AppendInsert(dst, p.g, p.g.BaseIDs, column)
}
