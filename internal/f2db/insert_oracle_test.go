package f2db

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"

	"cubefc/internal/cube"
)

// The differential oracle of the INSERT path: the materializing lexer, the
// token-slice parser and the per-row resolver the engine ran before the
// pull lexer and the streaming scanner replaced them, moved here verbatim
// (names prefixed, and the later rejection of a non-finite measure added to
// both) so TestInsertScanTwin and
// FuzzParseInsert can hold the replacement to them. It reads UTF-8 bytes as
// Latin-1 runes — the bug the pull lexer fixes — so the comparison is
// restricted to ASCII statements.

func oracleLex(s string) ([]token, error) {
	var out []token
	i := 0
	for i < len(s) {
		c := rune(s[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '\'':
			j := i + 1
			for j < len(s) && s[j] != '\'' {
				j++
			}
			if j >= len(s) {
				return nil, fmt.Errorf("f2db: unterminated string literal at offset %d", i)
			}
			out = append(out, token{tokString, s[i+1 : j]})
			i = j + 1
		case c == ',' || c == '(' || c == ')' || c == '=' || c == '+' || c == '*':
			out = append(out, token{tokPunct, string(c)})
			i++
		case unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' || c == '.':
			j := i
			for j < len(s) && (unicode.IsLetter(rune(s[j])) || unicode.IsDigit(rune(s[j])) || s[j] == '_' || s[j] == '.') {
				j++
			}
			out = append(out, token{tokIdent, s[i:j]})
			i = j
		default:
			return nil, fmt.Errorf("f2db: unexpected character %q at offset %d", c, i)
		}
	}
	out = append(out, token{tokEOF, ""})
	return out, nil
}

type oracleParser struct {
	toks []token
	pos  int
}

func (p *oracleParser) peek() token { return p.toks[p.pos] }
func (p *oracleParser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *oracleParser) isKw(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}
func (p *oracleParser) expectKw(kw string) error {
	if !p.isKw(kw) {
		return fmt.Errorf("f2db: expected %s, got %q", strings.ToUpper(kw), p.peek().text)
	}
	p.next()
	return nil
}
func (p *oracleParser) expectPunct(ch string) error {
	t := p.peek()
	if t.kind != tokPunct || t.text != ch {
		return fmt.Errorf("f2db: expected %q, got %q", ch, t.text)
	}
	p.next()
	return nil
}

// oracleParseInsert parses an INSERT statement:
//
//	INSERT INTO <table> VALUES ('<member1>', ..., <measure>)[, (...), ...]
//
// Each row lists one member value per dimension (checked by Exec, not the
// parser) followed by exactly one numeric measure.
func oracleParseInsert(sql string) (*insertStmt, error) {
	toks, err := oracleLex(sql)
	if err != nil {
		return nil, err
	}
	p := &oracleParser{toks: toks}
	if err := p.expectKw("insert"); err != nil {
		return nil, err
	}
	if err := p.expectKw("into"); err != nil {
		return nil, err
	}
	tbl := p.next()
	if tbl.kind != tokIdent {
		return nil, fmt.Errorf("f2db: expected table name, got %q", tbl.text)
	}
	if err := p.expectKw("values"); err != nil {
		return nil, err
	}
	stmt := &insertStmt{table: tbl.text}
	for {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var row insertRow
		haveValue := false
		for {
			t := p.next()
			switch t.kind {
			case tokString:
				if haveValue {
					return nil, fmt.Errorf("f2db: member value %q after measure", t.text)
				}
				row.members = append(row.members, t.text)
			case tokIdent:
				if haveValue {
					return nil, fmt.Errorf("f2db: second measure %q in row", t.text)
				}
				v, err := strconv.ParseFloat(t.text, 64)
				if err != nil {
					return nil, fmt.Errorf("f2db: expected numeric measure, got %q", t.text)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("f2db: measure %q is not finite", t.text)
				}
				row.value = v
				haveValue = true
			default:
				return nil, fmt.Errorf("f2db: unexpected token %q in VALUES", t.text)
			}
			if p.peek().kind == tokPunct && p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if !haveValue {
			return nil, fmt.Errorf("f2db: INSERT misses the measure value")
		}
		stmt.rows = append(stmt.rows, row)
		if p.peek().kind == tokPunct && p.peek().text == "," {
			p.next()
			continue
		}
		break
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("f2db: trailing input %q", p.peek().text)
	}
	return stmt, nil
}

// oracleResolveBaseIn was resolveBase against a bare graph, shared with the
// engine-free routing Planner so a coordinator resolves (and rejects)
// INSERT rows byte-identically to the engine.
func oracleResolveBaseIn(g *cube.Graph, members []string) (int, error) {
	coord := make(cube.Coord, len(g.Dims))
	for d := range g.Dims {
		if d >= len(members) {
			return 0, fmt.Errorf("f2db: insert needs %d member values, got %d", len(g.Dims), len(members))
		}
		coord[d] = cube.Cell{Level: 0, Value: members[d]}
	}
	n := g.Lookup(coord)
	if n == nil || !g.IsBase(n.ID) {
		return 0, fmt.Errorf("f2db: unknown base series %v", members)
	}
	return n.ID, nil
}

// oracleRows is the resolution loop the engine's Exec and the planner's
// routing path once shared: parse the whole statement, then resolve row by
// row, rejecting a repeated base series with a set.
func oracleRows(g *cube.Graph, sql string) ([]baseRow, error) {
	stmt, err := oracleParseInsert(sql)
	if err != nil {
		return nil, err
	}
	rows := make([]baseRow, 0, len(stmt.rows))
	seen := make(map[int]bool, len(stmt.rows))
	for _, row := range stmt.rows {
		id, err := oracleResolveBaseIn(g, row.members)
		if err != nil {
			return nil, err
		}
		if seen[id] {
			return nil, fmt.Errorf("f2db: duplicate row for base series %v in INSERT", row.members)
		}
		seen[id] = true
		rows = append(rows, baseRow{id, row.value})
	}
	return rows, nil
}
