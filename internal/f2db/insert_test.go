package f2db

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/timeseries"
)

// gridEngine opens an engine over a two-dimensional flat cube — one base
// series per (a, b) member pair, 8 observations each, distinct per series —
// with an empty configuration: the write path and historical queries need
// no model, and no advisor run keeps a 5 000-series cube cheap.
func gridEngine(t testing.TB, levels [2]string, as, bs []string, opts Options) (*DB, *cube.Graph) {
	t.Helper()
	dims := []cube.Dimension{cube.NewDimension(levels[0], levels[0]), cube.NewDimension(levels[1], levels[1])}
	var base []cube.BaseSeries
	for _, a := range as {
		for _, b := range bs {
			vals := make([]float64, 8)
			for i := range vals {
				vals[i] = float64(len(base)*10 + i)
			}
			base = append(base, cube.BaseSeries{Members: []string{a, b}, Series: timeseries.New(vals, 4)})
		}
	}
	g, err := cube.NewGraph(dims, base)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(g, core.NewConfiguration(g, 6), opts)
	if err != nil {
		t.Fatal(err)
	}
	return db, g
}

func numbered(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

// insertSQL renders one multi-row INSERT over the given base nodes of a
// gridEngine graph.
func insertSQL(g *cube.Graph, ids []int, value float64) string {
	var b strings.Builder
	b.WriteString("INSERT INTO facts VALUES ")
	for i, id := range ids {
		c := g.CoordOf(id)
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "('%s', '%s', %g)", c[0].Value, c[1].Value, value+float64(i))
	}
	return b.String()
}

// pipelineRows runs the INSERT pipeline the way RouteExecNodes does,
// keeping the values: the (baseID, value) sequence in statement order.
func pipelineRows(g *cube.Graph, sql string) ([]baseRow, error) {
	sc := getInsertScratch()
	defer sc.release()
	if err := sc.resolve(g, sql); err != nil {
		return nil, err
	}
	rows := append([]baseRow(nil), sc.rows...)
	if err := sc.rejectDuplicates(g); err != nil {
		return nil, err
	}
	return rows, nil
}

// checkInsertTwin holds the pipeline to the oracle on one statement: same
// accept/reject, the same (baseID, value) sequence when accepted and, for a
// statement with a single defect, the same error text.
func checkInsertTwin(t *testing.T, g *cube.Graph, sql string, singleDefect bool) {
	t.Helper()
	want, werr := oracleRows(g, sql)
	got, gerr := pipelineRows(g, sql)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%q:\n  oracle:   %v\n  pipeline: %v", sql, werr, gerr)
	}
	if werr != nil {
		if singleDefect && werr.Error() != gerr.Error() {
			t.Fatalf("%q:\n  oracle says   %q\n  pipeline says %q", sql, werr, gerr)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%q: %d rows, oracle has %d", sql, len(got), len(want))
	}
	for i := range want {
		if got[i].id != want[i].id || math.Float64bits(got[i].value) != math.Float64bits(want[i].value) {
			t.Fatalf("%q: row %d is %+v, oracle has %+v", sql, i, got[i], want[i])
		}
	}
}

// genInsert draws an INSERT over the testEngine cube (P1–P2 × C1–C4) with
// random layout, keyword case and measure spelling, and at most one
// injected defect.
func genInsert(r *rand.Rand) string {
	ws := func() string { return []string{"", " ", "  ", "\t", "\n "}[r.Intn(5)] }
	pick := func(s ...string) string { return s[r.Intn(len(s))] }
	measure := func() string { return pick("1", "2.5", ".5", "1e3", "0x1p4", "007") }
	row := func(members []string, tail string) string {
		var b strings.Builder
		b.WriteString("(" + ws())
		for _, m := range members {
			b.WriteString("'" + m + "'" + ws() + "," + ws())
		}
		b.WriteString(tail + ws() + ")")
		return b.String()
	}
	var members [][]string
	for _, i := range r.Perm(8)[:1+r.Intn(8)] {
		members = append(members, []string{fmt.Sprintf("P%d", 1+i/4), fmt.Sprintf("C%d", 1+i%4)})
	}
	head := pick("INSERT", "insert", "Insert") + " " + ws() + pick("INTO", "into") + " facts" + ws() + " " + pick("VALUES", "values") + ws()
	defect := r.Intn(25) // 0–16 inject, the rest leave the statement valid
	at := r.Intn(len(members))
	rows := make([]string, len(members))
	for i, m := range members {
		rows[i] = row(m, measure())
	}
	sep := ws() + "," + ws()
	switch defect {
	case 0: // unknown member
		rows[at] = row([]string{members[at][0], "C9"}, measure())
	case 1: // too few members
		rows[at] = row(members[at][:r.Intn(2)], measure())
	case 2: // too many members: accepted, the extras ignored
		rows[at] = row(append(members[at][:2:2], "extra"), measure())
	case 3: // a repeated row
		rows = append(rows, row(members[at], measure()))
	case 4: // no measure
		rows[at] = "('" + members[at][0] + "', '" + members[at][1] + "')"
	case 5: // two measures
		rows[at] = row(members[at], "1, 2")
	case 6: // member after the measure
		rows[at] = row(members[at][:1], "1, '"+members[at][1]+"'")
	case 7: // unclosed row
		rows[at] = strings.TrimSuffix(rows[at], ")")
	case 8: // trailing input
		return head + strings.Join(rows, sep) + pick(" garbage", ",", " 'x'", " (")
	case 9: // unterminated literal (in the last row: it swallows what follows)
		at = len(rows) - 1
		rows[at] = "('" + members[at][0] + "', '" + members[at][1] + ", 1)"
	case 10: // stray character
		rows[at] = "(" + pick("?", ";", "-", "\x00") + rows[at][1:]
	case 11: // rows not separated
		if len(rows) > 1 {
			sep = " "
		}
	case 12: // misspelt keyword
		head = pick("INSRT INTO facts VALUES ", "INSERT IN facts VALUES ", "INSERT INTO facts VALUE ", "INSERT INTO VALUES ")
	case 13: // table name as a literal
		head = "INSERT INTO 'facts' VALUES "
	case 14: // measure not a number
		rows[at] = row(members[at], pick("abc", "1.2.3", "1e", "0x"))
	case 15: // empty row
		rows[at] = "(" + ws() + ")"
	case 16: // non-finite measure
		rows[at] = row(members[at], pick("Inf", "inf", "NaN", "nan", "Infinity"))
	}
	return head + strings.Join(rows, sep)
}

// TestInsertScanTwin is the differential gate of the INSERT pipeline: on
// generated statements — valid, or with exactly one defect of every kind
// the dialect can reject — the pull lexer, the streaming scanner and the
// key-free resolver agree with the materializing oracle on acceptance, on
// the resolved (baseID, value) sequence and on the error text.
func TestInsertScanTwin(t *testing.T) {
	_, g, _ := testEngine(t, nil)
	for _, sql := range []string{
		"INSERT INTO facts VALUES ('P1', 'C1', 1)",
		"INSERT INTO facts VALUES ('P1', 'C1', 1), ('P1', 'C1', 2)",
		"INSERT INTO facts VALUES ('P1', 'C1', 1), ('P2', 'C2', Inf), ('P1', 'C1', NaN), ('P2', 'C2', 4)",
		"INSERT INTO facts VALUES ('P1', 'C1', 'x', 1)",
		"INSERT INTO facts VALUES",
		"",
	} {
		checkInsertTwin(t, g, sql, true)
	}
	check := func(seed int64) bool {
		checkInsertTwin(t, g, genInsert(rand.New(rand.NewSource(seed))), true)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

// TestInsertErrorPrecedence pins the rule for statements with several
// defects: the first in text order is reported — a lexical error no longer
// outranks an earlier defect — except that repeated rows are found last.
func TestInsertErrorPrecedence(t *testing.T) {
	db, _, _ := testEngine(t, nil)
	for _, tc := range []struct{ sql, want string }{
		{"INSERT INTO facts VALUES ('P1', 'C9', 1), ('P1', 'C1' ? 2)", `f2db: unknown base series [P1 C9]`},
		{"INSERT INTO facts VALUES ('P1', 'C1', 1) ('P2', 'C1', ?)", `f2db: trailing input "("`},
		{"INSERT INTO facts VALUES ('P1', 1), ('P1', 'C1', 1, 2)", `f2db: insert needs 2 member values, got 1`},
		{"INSERT INTO facts VALUES ('P1', 'C1', 1), ('P1', 'C1', 2), ('P1', 'C9', 3)", `f2db: unknown base series [P1 C9]`},
		{"INSERT INTO facts VALUES ('P1', 'C1', 1), ('P2', 'C1', 2), ('P2', 'C1', 3), ('P1', 'C1', 4)", `f2db: duplicate row for base series [P2 C1] in INSERT`},
		{"INSERT INTO facts VALUES ('P1', 'C1', NaN)", `f2db: measure "NaN" is not finite`},
		{"INSERT INTO facts VALUES ('P1', 'C1', 1), ('P1', 'C2', inf), ('P1', 'C9', 3)", `f2db: measure "inf" is not finite`},
		{"INSERT INTO facts VALUES ('P1', 'C9', 1), ('P1', 'C1', Infinity)", `f2db: unknown base series [P1 C9]`},
	} {
		if err := db.Exec(tc.sql); err == nil || err.Error() != tc.want {
			t.Fatalf("%s:\n  got  %v\n  want %s", tc.sql, err, tc.want)
		}
	}
	if n := db.pendingTotal.Load(); n != 0 {
		t.Fatalf("rejected statements left %d values pending", n)
	}
}

// TestExecInsertAllocs is the allocation gate of the INSERT path: in steady
// state a multi-row Exec allocates (next to) nothing, and what it allocates
// does not depend on the number of rows; routing allocates its result.
func TestExecInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (sync.Pool drops items at random)")
	}
	const runs = 16
	db, g := gridEngine(t, [2]string{"product", "city"}, numbered("P", 72), numbered("C", 72), Options{})
	next := 0 // every statement names fresh base series: no batch completes, nothing repeats
	stmts := func(rows int) []string {
		out := make([]string, runs+1)
		for i := range out {
			out[i] = insertSQL(g, g.BaseIDs[next:next+rows], 1)
			next += rows
		}
		return out
	}
	measure := func(rows int) float64 {
		sqls, i := stmts(rows), 0
		return testing.AllocsPerRun(runs, func() {
			if err := db.Exec(sqls[i]); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	wide, narrow := measure(256), measure(16)
	if wide > 4 || wide != narrow {
		t.Fatalf("Exec allocates %v times for 256 rows and %v for 16; want ≤ 4 and equal", wide, narrow)
	}
	if got, want := db.pendingTotal.Load(), int64(next); got != want {
		t.Fatalf("%d values pending, want %d", got, want)
	}

	p := NewPlanner(g, 0)
	sql := insertSQL(g, g.BaseIDs[:256], 1)
	rows := 0
	if n := testing.AllocsPerRun(runs, func() { rows, _ = p.RouteExecNodes(sql) }); n != 0 {
		t.Fatalf("RouteExecNodes allocates %v times for 256 rows, want 0", n)
	}
	if rows != 256 {
		t.Fatalf("RouteExecNodes counted %d rows of 256", rows)
	}

	// The token-slice parser took 21 allocations for this statement, and
	// the parser that built its own statement and select list 7.
	const q = "SELECT time, SUM(sales) FROM facts WHERE product = 'P1' AND city = 'C4' GROUP BY time AS OF now() + '3 steps'"
	if n := testing.AllocsPerRun(runs, func() { _ = parseQuery(q, new(selectStmt)) }); n > 1 {
		t.Fatalf("parseQuery allocates %v times, want ≤ 1 (the statement)", n)
	}
}

// pendingValues counts the values held in the pending column, by walking
// its presence marks.
func pendingValues(db *DB) (n int) {
	db.lockPending()
	defer db.pendMu.Unlock()
	for _, p := range db.present {
		if p {
			n++
		}
	}
	return n
}

// TestExecInsertAtomic: no row reaches the pending column unless the whole statement
// scanned and resolved — a defect in the last row leaves the engine as if
// the statement had never been sent.
func TestExecInsertAtomic(t *testing.T) {
	db, g := gridEngine(t, [2]string{"product", "city"}, numbered("P", 8), numbered("C", 8), Options{})
	good := insertSQL(g, g.BaseIDs[:40], 1)
	for _, last := range []string{
		", ('P0', 'nowhere', 1)", // unknown
		", ('P0', 'C0', 2)",      // repeats the first row
		", ('P0', 3)",            // too few members
		", ('P0', 'C0' 4)",       // malformed
		", ('P0', 'C0', 5",       // cut short
	} {
		if err := db.Exec(good + last); err == nil {
			t.Fatalf("statement ending %q accepted", last)
		}
		if db.pendingTotal.Load() != 0 || pendingValues(db) != 0 || db.Metrics().Inserts != 0 {
			t.Fatalf("statement ending %q left pendingTotal=%d, %d values pending, %d inserts counted",
				last, db.pendingTotal.Load(), pendingValues(db), db.Metrics().Inserts)
		}
	}
	if err := db.Exec(good); err != nil {
		t.Fatal(err)
	}
	if db.pendingTotal.Load() != 40 || pendingValues(db) != 40 {
		t.Fatalf("accepted statement: pendingTotal=%d, %d values pending, want 40", db.pendingTotal.Load(), pendingValues(db))
	}

	// At run time too: on a 4 × 4 grid with base 12 pending, a statement
	// for bases 1, 2 and 12 repeats a pending value after two fresh rows,
	// and changes nothing.
	db, g = gridEngine(t, [2]string{"product", "city"}, numbered("P", 4), numbered("C", 4), Options{})
	b := slices.Clone(g.BaseIDs)
	slices.Sort(b)
	if err := db.Exec(insertSQL(g, b[12:13], 1)); err != nil {
		t.Fatal(err)
	}
	before := engineState(db)
	err := db.Exec(insertSQL(g, []int{b[1], b[2], b[12]}, 2))
	if want := fmt.Sprintf("f2db: duplicate insert for base node %d in current batch", b[12]); fmt.Sprint(err) != want {
		t.Fatalf("runtime duplicate: %v, want %q", err, want)
	}
	if after := engineState(db); after != before {
		t.Fatalf("a rejected statement changed the engine:\n%s\nwas\n%s", after, before)
	}
}

// engineState renders everything an insert statement may change: the
// pending values and their presence marks, the pending count, the insert and
// batch counters, and every base series.
func engineState(db *DB) string {
	db.lockPending()
	defer db.pendMu.Unlock()
	m := db.Metrics()
	var b strings.Builder
	fmt.Fprintf(&b, "pending %v\npresent %v\ntotal %d inserts %d batches %d\n", db.pending, db.present, db.pendingTotal.Load(), m.Inserts, m.Batches)
	for _, id := range db.graph.BaseIDs {
		fmt.Fprintf(&b, "%d %v\n", id, db.graph.NodeValues(id))
	}
	return b.String()
}

// TestRejectedInsertReplicaTwin feeds two replicas the same statements —
// one that repeats a pending value after fresh rows, its retry without the
// duplicate, and a statement that completes the batch and puts its last rows
// into the next one — and a reference engine only the statements that were
// accepted. After every statement the replicas return the same error and
// agree with each other, and with the reference, on all engine state.
func TestRejectedInsertReplicaTwin(t *testing.T) {
	levels := [2]string{"product", "city"}
	a, g := gridEngine(t, levels, numbered("P", 4), numbered("C", 4), Options{})
	b, _ := gridEngine(t, levels, numbered("P", 4), numbered("C", 4), Options{})
	ref, _ := gridEngine(t, levels, numbered("P", 4), numbered("C", 4), Options{})
	ids := slices.Clone(g.BaseIDs)
	slices.Sort(ids)
	for i, stmt := range []struct {
		ids    []int
		reject bool
	}{
		{ids[12:13], false},
		{[]int{ids[1], ids[2], ids[12]}, true},
		{ids[1:3], false},
		{ids[1:3], true},
		{ids[13:], false},
		// Completes the batch with base 11, then puts bases 12 and 13 into
		// the next one.
		{slices.Concat(ids[:1], ids[3:14]), false},
		{[]int{ids[0], ids[13]}, true},
		{ids[0:1], false},
	} {
		sql := insertSQL(g, stmt.ids, float64(10*i))
		errA, errB := a.Exec(sql), b.Exec(sql)
		if fmt.Sprint(errA) != fmt.Sprint(errB) || (errA != nil) != stmt.reject {
			t.Fatalf("statement %d: replicas return %v and %v, want rejected %v", i, errA, errB, stmt.reject)
		}
		if !stmt.reject {
			if err := ref.Exec(sql); err != nil {
				t.Fatal(err)
			}
		}
		if sa, sb, sr := engineState(a), engineState(b), engineState(ref); sa != sb || sa != sr {
			t.Fatalf("statement %d: replicas\n%s\nand\n%s\nreference\n%s", i, sa, sb, sr)
		}
	}
	if got := a.graph.Length; got != 9 {
		t.Fatalf("replicas at length %d, want 9: one advance", got)
	}
}

// TestExecInsertConcurrentScratch runs four writers (and a router) through
// the shared scratch pool at once, for the race detector, and holds the
// result to a twin fed the same time points through InsertBatch.
func TestExecInsertConcurrentScratch(t *testing.T) {
	const writers, points, perStmt = 4, 3, 7
	levels := [2]string{"product", "city"}
	db, g := gridEngine(t, levels, numbered("P", 12), numbered("C", 12), Options{})
	twin, _ := gridEngine(t, levels, numbered("P", 12), numbered("C", 12), Options{})
	p := NewPlanner(g, 0)
	for point := 0; point < points; point++ {
		var stmts []string
		batch := make(map[int]float64)
		for lo := 0; lo < len(g.BaseIDs); lo += perStmt {
			ids := g.BaseIDs[lo:min(lo+perStmt, len(g.BaseIDs))]
			stmts = append(stmts, insertSQL(g, ids, float64(point*1000+lo)))
			for i, id := range ids {
				batch[id] = float64(point*1000+lo) + float64(i)
			}
		}
		var wg sync.WaitGroup
		errs := make([]error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(stmts); i += writers {
					if _, err := p.RouteExecNodes(stmts[i]); err != nil {
						errs[w] = err
						return
					}
					if err := db.Exec(stmts[i]); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := twin.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if db.Stats().Batches != points || twin.Stats().Batches != points {
		t.Fatalf("batches: %d and twin %d, want %d", db.Stats().Batches, twin.Stats().Batches, points)
	}
	for id := 0; id < g.NumNodes(); id++ {
		a, b := db.graph.NodeValues(id), twin.graph.NodeValues(id)
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("node %d step %d: %v, twin has %v", id, i, a[i], b[i])
			}
		}
	}
}

// TestNormalizeSQLLiterals: whitespace inside a string literal is part of
// the member, so it is part of the key — two members that differ only
// there must not share a plan.
func TestNormalizeSQLLiterals(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"SELECT  a FROM t WHERE c = 'New  York'", "SELECT a FROM t WHERE c = 'New  York'"},
		{" SELECT a\tFROM t WHERE c = ' x\ty ' ", "SELECT a FROM t WHERE c = ' x\ty '"},
		{"SELECT a FROM t WHERE c = 'a  b'  AND d = 'e\n'", "SELECT a FROM t WHERE c = 'a  b' AND d = 'e\n'"},
		{"INSERT INTO t VALUES ('a  b',  1)", "INSERT INTO t VALUES ('a  b', 1)"},
		{"SELECT a  FROM t WHERE c = 'open  ", "SELECT a FROM t WHERE c = 'open  "},
		{"SELECT a FROM t WHERE c = ''", "SELECT a FROM t WHERE c = ''"},
	} {
		if got := NormalizeSQL(tc.in); got != tc.want {
			t.Fatalf("NormalizeSQL(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	const canon = "SELECT time, m FROM facts WHERE city = 'New  York' AND product = 'a b'"
	if n := testing.AllocsPerRun(100, func() { _ = NormalizeSQL(canon) }); n != 0 {
		t.Fatalf("canonical text with inner whitespace allocates %v times, want 0", n)
	}

	db, g := gridEngine(t, [2]string{"product", "city"}, []string{"P"}, []string{"New York", "New  York"}, Options{})
	for _, city := range []string{"New York", "New  York", "New York"} {
		res, err := db.Query("SELECT time, m FROM facts WHERE city = '" + city + "'")
		if err != nil {
			t.Fatal(err)
		}
		if want := g.LookupKey("*|city=" + city).ID; res.Node != want {
			t.Fatalf("city %q answered from node %d (%s), want %d", city, res.Node, res.NodeKey, want)
		}
	}
}

// TestLexerUTF8: outside literals the statement is UTF-8, not Latin-1 — a
// level name and a bare member may be non-ASCII, end to end, and a stray
// symbol is reported as the rune it is.
func TestLexerUTF8(t *testing.T) {
	db, g := gridEngine(t, [2]string{"prodotto", "città"}, []string{"caffè"}, []string{"Zürich", "Ålesund"}, Options{})
	for _, q := range []string{
		"SELECT time, m FROM facts WHERE città = 'Zürich'",
		"SELECT time, m FROM facts WHERE città = Ålesund AND prodotto = caffè",
		"SELECT time, SUM(m) FROM facts GROUP BY time, città",
	} {
		if _, err := db.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	res, err := db.Query("SELECT time, m FROM facts WHERE città = Ålesund")
	if err != nil {
		t.Fatal(err)
	}
	if want := g.LookupKey("*|città=Ålesund").ID; res.Node != want {
		t.Fatalf("bare non-ASCII member answered from node %d, want %d", res.Node, want)
	}
	if err := db.Exec("INSERT INTO facts VALUES ('caffè', 'Zürich', 1), ('caffè', 'Ålesund', 2)"); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Batches != 1 {
		t.Fatalf("batches = %d, want 1", db.Stats().Batches)
	}
	const stray = "SELECT time, m FROM facts WHERE città = €"
	_, err = db.Query(stray)
	if want := fmt.Sprintf("f2db: unexpected character '€' at offset %d", strings.Index(stray, "€")); err == nil || err.Error() != want {
		t.Fatalf("stray symbol: got %v, want %s", err, want)
	}
}

// BenchmarkExecInsert256 is the SQL write path per 256-row statement, time
// advances included (the cube has 1 024 base series: every fourth statement
// completes a batch).
func BenchmarkExecInsert256(b *testing.B) {
	db, g := gridEngine(b, [2]string{"product", "city"}, numbered("P", 32), numbered("C", 32), Options{})
	var stmts []string
	for lo := 0; lo < len(g.BaseIDs); lo += 256 {
		stmts = append(stmts, insertSQL(g, g.BaseIDs[lo:lo+256], 1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Exec(stmts[i%len(stmts)]); err != nil {
			b.Fatal(err)
		}
	}
}
