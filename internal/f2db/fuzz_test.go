package f2db

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"cubefc/internal/forecast"
	"cubefc/internal/segment"
)

// FuzzParseSQL feeds arbitrary input to the query parser. Two properties:
// the parser never panics (errors are fine — lexing and parsing reject
// garbage by returning one), and accepted statements round-trip: rendering
// the parsed statement in canonical form and re-parsing it yields the
// identical statement. The checked-in corpus under
// testdata/fuzz/FuzzParseSQL seeds the dialect's grammar corners; CI runs
// a short -fuzz smoke on top of the corpus replay this test performs.
func FuzzParseSQL(f *testing.F) {
	seeds := []string{
		"SELECT time, SUM(m) FROM facts GROUP BY time AS OF now() + '2 steps'",
		"EXPLAIN SELECT time, AVG(m) FROM facts WHERE region = 'R1' GROUP BY time",
		"SELECT time, m FROM facts WHERE product = 'P1' AND city = 'C4' AS OF now() + '3 steps'",
		"SELECT time, SUM(m) FROM facts WHERE purpose = 'holiday' GROUP BY time, city AS OF now() + '1 day' WITH INTERVAL 95",
		"select * from facts",
		"SELECT time, SUM(m) FROM facts WHERE a = '' GROUP BY time WITH INTERVAL 0.5",
		"SELECT time FROM facts AS OF now() + ''",
		"SELECT",
		"",
		"INSERT INTO facts VALUES ('holiday', 'NSW', 123.4)",
		"SELECT time, SUM(m) FROM facts WITH INTERVAL 1e1",
		"SELECT time, SUM(m) FROM facts GROUP BY region",
		"'unterminated",
		"SELECT \x00 FROM facts",
		"SELECT time, SUM(m) FROM facts AS OF now() + '2 steps' WITH INTERVAL NaN",
		"SELECT time, SUM(m) FROM facts AS OF now() + '9223372036854775807 steps'",
		"SELECT time, SUM(m) FROM facts AS OF now() + '99999999999 years'",
		"SELECT time , sum( m ),m FROM facts AS OF now() + ' 3\u00a0Weeks '",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt := new(selectStmt)
		if err := parseQuery(sql, stmt); err != nil { // must not panic
			return
		}
		if stmt.horizon != "" {
			checkHorizonTwin(t, stmt.horizon)
		}
		rendered := stmt.String()
		stmt2 := new(selectStmt)
		if err := parseQuery(rendered, stmt2); err != nil {
			t.Fatalf("canonical form rejected:\n  input:    %q\n  rendered: %q\n  err: %v", sql, rendered, err)
		}
		if !reflect.DeepEqual(stmt, stmt2) {
			t.Fatalf("round-trip changed the statement:\n  input:    %q\n  rendered: %q\n  first:  %+v\n  second: %+v",
				sql, rendered, stmt, stmt2)
		}
		if again := stmt2.String(); again != rendered {
			t.Fatalf("canonical form not a fixed point: %q -> %q", rendered, again)
		}
	})
}

// String renders the statement back into the dialect in canonical form:
// parsing the rendered text yields an identical statement (the round-trip
// property FuzzParseSQL checks). The select list is rendered as written.
// Member values are always quoted, GROUP BY emits time before the
// drill-down level — both normalizations the parser already applies. The
// engine never renders a statement, so this lives with the tests that do.
func (s *selectStmt) String() string {
	var b strings.Builder
	if s.explain {
		b.WriteString("EXPLAIN ")
	}
	b.WriteString("SELECT ")
	b.WriteString(s.list)
	b.WriteString(" FROM ")
	b.WriteString(s.table)
	for i, p := range s.preds {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		b.WriteString(p.attr)
		b.WriteString(" = '")
		b.WriteString(p.value)
		b.WriteString("'")
	}
	if s.groupBy || s.groupLevel != "" {
		b.WriteString(" GROUP BY ")
		switch {
		case s.groupBy && s.groupLevel != "":
			b.WriteString("time, ")
			b.WriteString(s.groupLevel)
		case s.groupBy:
			b.WriteString("time")
		default:
			b.WriteString(s.groupLevel)
		}
	}
	if s.horizon != "" {
		b.WriteString(" AS OF now() + '")
		b.WriteString(s.horizon)
		b.WriteString("'")
	}
	if s.interval > 0 {
		b.WriteString(" WITH INTERVAL ")
		// 'f' (never scientific notation): the lexer's ident token has no
		// '+'/'-', so "1e-05" would not re-lex.
		b.WriteString(strconv.FormatFloat(s.interval, 'f', -1, 64))
	}
	return b.String()
}

// insertStmt is an INSERT statement collected whole: the target table and
// one or more (members..., measure) rows. The engine never builds one — it
// streams rows off the insertScanner — but FuzzParseInsert's round-trip
// through the canonical renderer below needs the statement in hand.
type insertStmt struct {
	table string
	rows  []insertRow
}

type insertRow struct {
	members []string
	value   float64
}

// String renders the statement back into the dialect in canonical form:
// parsing the rendered text yields an identical statement (the round-trip
// property FuzzParseInsert checks). Measures (always finite) render with
// FormatFloat 'f' — never scientific notation, whose '+'/'-' the lexer's
// ident token cannot re-lex.
func (s *insertStmt) String() string {
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(s.table)
	b.WriteString(" VALUES ")
	for i, row := range s.rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(")
		for _, m := range row.members {
			b.WriteString("'")
			b.WriteString(m)
			b.WriteString("', ")
		}
		b.WriteString(strconv.FormatFloat(row.value, 'f', -1, 64))
		b.WriteString(")")
	}
	return b.String()
}

// parseInsert collects the rows the insertScanner yields into an
// insertStmt. Purely syntactic: member values are not resolved.
func parseInsert(sql string) (*insertStmt, error) {
	var sc insertScanner
	if err := sc.open(sql); err != nil {
		return nil, err
	}
	stmt := &insertStmt{table: sc.table}
	for {
		ok, err := sc.row()
		if err != nil {
			return nil, err
		}
		if !ok {
			return stmt, nil
		}
		stmt.rows = append(stmt.rows, insertRow{members: append([]string(nil), sc.members...), value: sc.value})
	}
}

// FuzzParseInsert is the INSERT-path twin of FuzzParseSQL, and the
// differential fuzz of the INSERT pipeline against its oracle
// (insert_oracle_test.go). Properties: the scanner never panics; accepted
// statements round-trip through the canonical renderer (insertStmt.String)
// to an identical statement and a fixed-point rendering; and on ASCII input
// (the oracle reads UTF-8 as Latin-1) the pipeline agrees with the oracle —
// same statement or both reject, same (baseID, value) sequence against the
// test cube or both reject, and the same error text wherever the two report
// in the same order: the oracle let a lexical error anywhere outrank every
// other defect and found repeated rows before later defects, so texts are
// compared when it lexed cleanly and did not stop at a repeated row.
// Corpus under testdata/fuzz/FuzzParseInsert.
func FuzzParseInsert(f *testing.F) {
	seeds := []string{
		"INSERT INTO facts VALUES ('holiday', 'NSW', 123.4)",
		"INSERT INTO facts VALUES ('P1', 'C1', 1), ('P1', 'C2', 2.5), ('P2', 'C1', 0.125)",
		"INSERT INTO facts VALUES ('P1', 'C1', 1), ('P2', 'C3', Inf), ('P1', 'C1', NaN)",
		"INSERT INTO facts VALUES ('P1', 'C9', 1), ('P1' 'C1', ?)",
		"insert into facts values ('a', 0)",
		"INSERT INTO facts VALUES (42)",
		"INSERT INTO facts VALUES ('m', NaN)",
		"INSERT INTO facts VALUES ('m', Inf)",
		"INSERT INTO facts VALUES ('m', 0x1p10)",
		"INSERT INTO facts VALUES ('', 1e3)",
		"INSERT INTO facts VALUES ('a' 1)",
		"INSERT INTO facts VALUES ('a', 1),",
		"INSERT INTO facts VALUES",
		"INSERT INTO facts VALUES ('a', 1) trailing",
		"INSERT INTO città VALUES ('Zürich', 1)",
		"SELECT time FROM facts",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	_, g, _ := testEngine(f, nil)
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := parseInsert(sql) // must not panic
		if isASCII(sql) {
			want, werr := oracleParseInsert(sql)
			if (err == nil) != (werr == nil) || err == nil && !reflect.DeepEqual(stmt, want) {
				t.Fatalf("%q:\n  oracle:  %+v, %v\n  scanner: %+v, %v", sql, want, werr, stmt, err)
			}
			_, lexErr := oracleLex(sql)
			if err != nil && lexErr == nil && err.Error() != werr.Error() {
				t.Fatalf("%q:\n  oracle says  %q\n  scanner says %q", sql, werr, err)
			}
			_, rerr := oracleRows(g, sql)
			checkInsertTwin(t, g, sql, werr == nil && !strings.HasPrefix(fmt.Sprint(rerr), "f2db: duplicate row"))
		}
		if err != nil {
			return
		}
		rendered := stmt.String()
		stmt2, err := parseInsert(rendered)
		if err != nil {
			t.Fatalf("canonical form rejected:\n  input:    %q\n  rendered: %q\n  err: %v", sql, rendered, err)
		}
		if !reflect.DeepEqual(stmt, stmt2) {
			t.Fatalf("round-trip changed the statement:\n  input:    %q\n  rendered: %q\n  first:  %+v\n  second: %+v",
				sql, rendered, stmt, stmt2)
		}
		if again := stmt2.String(); again != rendered {
			t.Fatalf("canonical form not a fixed point: %q -> %q", rendered, again)
		}
	})
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// FuzzLoadDatabase feeds arbitrary bytes to the snapshot decoder. The only
// property is robustness: LoadDatabase returns an error on anything that is
// not a valid image — it never panics — and an image it does accept yields
// an engine that answers a forecast without panicking. Each input is loaded
// as it is and with every whole record's checksum recomputed, so a mutation
// reaches the decoder behind the CRC instead of stopping at it. Seeds are a
// valid SaveDatabase image, truncated and bit-flipped corruptions of it,
// an image with maintenance state, one whose Holt-Winters model has period
// 0, and a configuration image; the checked-in corpus adds gob prefixes of
// the format earlier versions wrote.
func FuzzLoadDatabase(f *testing.F) {
	src, _, _ := testEngine(f, nil)
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, src); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(append([]byte(nil), valid...))
	for _, cut := range []int{0, 1, len(valid) / 2, len(valid) - 1} {
		f.Add(append([]byte(nil), valid[:cut]...))
	}
	for _, pos := range []int{8, len(valid) / 3, 2 * len(valid) / 3} {
		flipped := append([]byte(nil), valid...)
		flipped[pos] ^= 0xff
		f.Add(flipped)
	}
	// An image whose models carry maintenance state: two time points under
	// TimeBased{Every: 2} leave every model invalid with a rolling error.
	aged, g, cfg := testEngine(f, TimeBased{Every: 2})
	for k := 0; k < 2; k++ {
		for _, id := range g.BaseIDs {
			if err := aged.InsertBase(id, float64(30+k)); err != nil {
				f.Fatal(err)
			}
		}
	}
	buf.Reset()
	if err := SaveDatabase(&buf, aged); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), buf.Bytes()...))
	for _, id := range src.cfg.ModelIDs() {
		if hw, ok := src.cfg.Models[id].(*forecast.HoltWinters); ok {
			hw.Period, hw.Season = 0, nil
			break
		}
	}
	buf.Reset()
	if err := SaveDatabase(&buf, src); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), buf.Bytes()...))
	buf.Reset()
	if err := SaveConfiguration(&buf, cfg); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), buf.Bytes()...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // bound decode cost; the seed image is ~4 KiB
		}
		for _, img := range [][]byte{data, recomputeCRCs(data)} {
			db, err := LoadDatabase(bytes.NewReader(img), Options{})
			if err != nil {
				continue
			}
			if _, err := db.ForecastNode(db.Graph().TopID(), 1); err != nil {
				t.Logf("restored engine rejected forecast: %v", err)
			}
		}
	})
}

// recomputeCRCs returns a copy of data with the checksum of every whole
// record, in the framing of segment.AppendRecord, recomputed from its type
// and payload.
func recomputeCRCs(data []byte) []byte {
	out := append([]byte(nil), data...)
	for off := 0; off+segment.RecordHeaderSize <= len(out); {
		end := off + segment.RecordHeaderSize + int(binary.LittleEndian.Uint32(out[off:]))
		if end > len(out) || end < off {
			break
		}
		segment.FrameRecord(out[:end], off)
		off = end
	}
	return out
}
