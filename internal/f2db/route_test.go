package f2db

import (
	"math"
	"testing"
)

// TestRouteQueryAllocs: planning a single-node statement allocates the Plan
// and nothing else — the statement is parsed into it and its node, member
// and key slices are its own arrays.
func TestRouteQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	_, g, _ := testEngine(t, nil)
	p := NewPlanner(g, 0)
	const q = "SELECT time, SUM(sales) FROM facts WHERE product = 'P1' AND city = 'C2' GROUP BY time AS OF now() + '3 days' WITH INTERVAL 95"
	if pl, err := p.RouteQuery(q); err != nil || len(pl.Nodes) != 1 {
		t.Fatalf("%s: %v", q, err)
	}
	if n := testing.AllocsPerRun(50, func() { _, _ = p.RouteQuery(q) }); n != 1 {
		t.Fatalf("RouteQuery allocates %v times for one node, want 1 (the Plan)", n)
	}
}

// TestRouteQueryMatchesEngine: the planner must describe exactly the nodes
// (and member order) the engine's own rewrite produces.
func TestRouteQueryMatchesEngine(t *testing.T) {
	db, g, _ := testEngine(t, nil)
	p := NewPlanner(g, 0)
	queries := []string{
		"SELECT time, sales FROM facts WHERE product = 'P1' AND city = 'C2'",
		"SELECT time, SUM(sales) FROM facts WHERE region = 'R2'",
		"SELECT time, SUM(sales) FROM facts",
		"SELECT time, SUM(sales) FROM facts WHERE product = 'P2' AS OF now() + '2 steps'",
		"SELECT time, SUM(sales) FROM facts WHERE product = 'P1' GROUP BY time, region AS OF now() + '1 day' WITH INTERVAL 95",
		"SELECT time, SUM(sales) FROM facts GROUP BY time, city",
	}
	for _, q := range queries {
		route, err := p.RouteQuery(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: engine: %v", q, err)
		}
		if len(route.Nodes) != len(res.Groups) {
			t.Fatalf("%s: route has %d nodes, engine %d groups", q, len(route.Nodes), len(res.Groups))
		}
		for i, grp := range res.Groups {
			if route.Nodes[i] != grp.Node || route.Members[i] != grp.Member {
				t.Fatalf("%s: group %d: route (%d, %q), engine (%d, %q)",
					q, i, route.Nodes[i], route.Members[i], grp.Node, grp.Member)
			}
		}
		if route.Forecast != res.Forecast {
			t.Fatalf("%s: route forecast %v, engine %v", q, route.Forecast, res.Forecast)
		}
	}
}

// TestRouteSubQueriesBitExact: a drill-down's group i is exactly the
// single-node statement with member i as one more equality predicate, bit
// for bit — the engine's GROUP BY executor and its single-node path are one
// derivation. The per-member statements are built here, from the parsed
// statement, the way a per-member split would render them.
func TestRouteSubQueriesBitExact(t *testing.T) {
	db, g, _ := testEngine(t, nil)
	p := NewPlanner(g, 0)
	for _, q := range []string{
		"SELECT time, SUM(sales) FROM facts WHERE product = 'P1' GROUP BY time, region",
		"SELECT time, SUM(sales) FROM facts GROUP BY time, city AS OF now() + '3 steps' WITH INTERVAL 90",
		"SELECT time, AVG(sales) FROM facts GROUP BY time, product AS OF now() + '1 day'",
	} {
		route, err := p.RouteQuery(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(route.Nodes) < 2 {
			t.Fatalf("%s: expected a multi-node route", q)
		}
		want, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for i, member := range route.Members {
			stmt := route.stmt
			stmt.preds = append(append([]predicate(nil), route.stmt.preds...),
				predicate{attr: route.stmt.groupLevel, value: member})
			stmt.groupLevel = ""
			sub := stmt.String()
			got, err := db.Query(sub)
			if err != nil {
				t.Fatalf("%s → %s: %v", q, sub, err)
			}
			if len(got.Groups) != 1 {
				t.Fatalf("%s: sub-query returned %d groups", sub, len(got.Groups))
			}
			wg, gg := want.Groups[i], got.Groups[0]
			if gg.Node != wg.Node {
				t.Fatalf("%s: sub %d resolved node %d, want %d", q, i, gg.Node, wg.Node)
			}
			if len(gg.Rows) != len(wg.Rows) {
				t.Fatalf("%s: sub %d has %d rows, want %d", q, i, len(gg.Rows), len(wg.Rows))
			}
			for j := range gg.Rows {
				if math.Float64bits(gg.Rows[j].Value) != math.Float64bits(wg.Rows[j].Value) ||
					math.Float64bits(gg.Rows[j].Lo) != math.Float64bits(wg.Rows[j].Lo) ||
					math.Float64bits(gg.Rows[j].Hi) != math.Float64bits(wg.Rows[j].Hi) ||
					gg.Rows[j].T != wg.Rows[j].T {
					t.Fatalf("%s: sub %d row %d differs: %+v vs %+v", q, i, j, gg.Rows[j], wg.Rows[j])
				}
			}
		}
	}
}

// TestRouteErrorsMatchEngine: planning rejections must carry the same
// message the engine would produce. The last three once crashed the engine:
// a NaN confidence level sized no interval and then sliced one, and an
// unbounded horizon overflowed or asked for every row up front.
func TestRouteErrorsMatchEngine(t *testing.T) {
	db, g, _ := testEngine(t, nil)
	p := NewPlanner(g, 0)
	for _, q := range []string{
		"SELECT time, sales FROM facts WHERE planet = 'X'",
		"SELECT time, sales FROM facts WHERE city = 'C9'",
		"SELECT time, sales FROM facts AS OF now() + 'someday'",
		"SELECT time, SUM(sales) FROM facts GROUP BY time, region WHERE",
		"SELECT time, SUM(sales) FROM facts AS OF now() + '2 steps' WITH INTERVAL NaN",
		"SELECT time, SUM(sales) FROM facts AS OF now() + '9223372036854775807 steps'",
		"SELECT time, SUM(sales) FROM facts AS OF now() + '99999999999 years'",
	} {
		_, rerr := p.RouteQuery(q)
		_, eerr := db.Query(q)
		if rerr == nil || eerr == nil || rerr.Error() != eerr.Error() {
			t.Fatalf("%s: route says %q, engine says %q", q, rerr, eerr)
		}
	}
}

// TestRouteExecNodes: INSERT row counts drive replay-cursor alignment;
// every rejection carries the engine's own text.
func TestRouteExecNodes(t *testing.T) {
	db, g, _ := testEngine(t, nil)
	p := NewPlanner(g, 0)
	n, err := p.RouteExecNodes("INSERT INTO facts VALUES ('P2', 'C1', 12), ('P1', 'C2', 11), ('P1', 'C1', 10)")
	if err != nil || n != 3 {
		t.Fatalf("RouteExecNodes: n=%d err=%v", n, err)
	}
	for _, q := range []string{
		"INSERT INTO facts VALUES ()",
		"INSERT INTO facts VALUES ('P1', 'C9', 1)",
		"INSERT INTO facts VALUES ('P1', 1)",
		"INSERT INTO facts VALUES ('P1', 'C1', 1), ('P2', 'C1', 2), ('P1', 'C1', 3)",
	} {
		_, rerr := p.RouteExecNodes(q)
		eerr := db.Exec(q)
		if rerr == nil || eerr == nil || rerr.Error() != eerr.Error() {
			t.Fatalf("%s: route says %v, engine says %v", q, rerr, eerr)
		}
	}
}
