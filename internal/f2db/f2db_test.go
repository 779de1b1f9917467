package f2db

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/datasets"
	"cubefc/internal/derivation"
	"cubefc/internal/forecast"
	"cubefc/internal/hierarchical"
	"cubefc/internal/segment"
	"cubefc/internal/timeseries"
)

// testEngine builds a small cube (product × city→region), runs the advisor
// and opens an engine over the result. testing.TB so fuzz targets can build
// seed images from the same engine.
func testEngine(t testing.TB, strategy InvalidationStrategy) (*DB, *cube.Graph, *core.Configuration) {
	t.Helper()
	g, cfg := testConfig(t, 36)
	db, err := Open(g, cfg, Options{Strategy: strategy})
	if err != nil {
		t.Fatal(err)
	}
	return db, g, cfg
}

// testConfig builds testEngine's cube cut to its first length points (at
// most 36) and runs the advisor on it.
func testConfig(t testing.TB, length int) (*cube.Graph, *core.Configuration) {
	t.Helper()
	g := testCube(t, length)
	cfg, err := core.Run(g, core.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return g, cfg
}

// testCube builds testEngine's cube cut to its first length points.
func testCube(t testing.TB, length int) *cube.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	loc, err := cube.NewHierarchy("location", []string{"city", "region"},
		[]map[string]string{{"C1": "R1", "C2": "R1", "C3": "R2", "C4": "R2"}})
	if err != nil {
		t.Fatal(err)
	}
	dims := []cube.Dimension{cube.NewDimension("product", "product"), loc}
	var base []cube.BaseSeries
	for _, p := range []string{"P1", "P2"} {
		for _, c := range []string{"C1", "C2", "C3", "C4"} {
			vals := make([]float64, 36)
			level := 30 + 20*rng.Float64()
			for i := range vals {
				season := 1 + 0.25*math.Sin(2*math.Pi*float64(i%4)/4)
				vals[i] = level * season * (1 + 0.05*rng.NormFloat64())
			}
			base = append(base, cube.BaseSeries{Members: []string{p, c}, Series: timeseries.New(vals[:length], 4)})
		}
	}
	g, err := cube.NewGraph(dims, base)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestOpenValidation(t *testing.T) {
	db, g, _ := testEngine(t, nil)
	_ = db
	other := core.NewConfiguration(g, 10)
	otherGraphCfg := &core.Configuration{Graph: nil}
	if _, err := Open(g, otherGraphCfg, Options{}); err == nil {
		t.Fatal("foreign configuration should be rejected")
	}
	_ = other
	// A configuration trained on more points than the graph holds cannot
	// be caught up to it: an error, not a panic.
	if _, err := Open(g, core.NewConfiguration(g, g.Length+1), Options{}); err == nil {
		t.Fatal("configuration trained past the graph's end should be rejected")
	}
}

func TestForecastNodeUsesFullHistoryWeight(t *testing.T) {
	// The engine refreshes derivation weights over the full available
	// history (the advisor's stored weights only saw the training part),
	// and forecasts from models caught up over the test window, so the
	// engine forecast equals the scheme applied with the full-history
	// weight to the advisor's models Update-d over values[TrainLen:].
	g, cfg := testConfig(t, 36)
	caught := caughtUpClones(t, g, cfg)
	db, err := Open(g, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{g.TopID, g.BaseIDs[0]} {
		sc := cfg.Schemes[id]
		fcs := make([][]float64, len(sc.Sources))
		for i, s := range sc.Sources {
			fcs[i] = make([]float64, 3)
			caught[s].Forecast(fcs[i])
		}
		live := sc
		if sc.Kind != derivation.Direct {
			k, err := derivation.Weight(g, id, sc.Sources, 0) // full history
			if err != nil {
				t.Fatal(err)
			}
			live.K = k
		}
		want, err := live.Apply(fcs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.ForecastNode(id, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-9 {
				t.Fatalf("node %d: engine forecast %v != expected %v", id, got, want)
			}
		}
	}
}

// caughtUpClones clones the configuration's models and Updates each clone
// over its node's values past cfg.TrainLen: what Open must make of them.
func caughtUpClones(t *testing.T, g *cube.Graph, cfg *core.Configuration) map[int]forecast.Model {
	t.Helper()
	out := make(map[int]forecast.Model, len(cfg.Models))
	for id, m := range cfg.Models {
		c := m.CloneModel()
		for _, v := range g.History(id, nil)[cfg.TrainLen:] {
			c.Update(v)
		}
		out[id] = c
	}
	return out
}

// TestOpenCatchesUp: Open leaves every model bit-identical (its encoding,
// parameters and state) to a clone of the advisor's model Update-d over the
// test window, with its maintenance statistics at zero; LoadDatabase of the
// opened engine's snapshot catches up nothing a second time.
func TestOpenCatchesUp(t *testing.T) {
	g, cfg := testConfig(t, 36)
	if cfg.TestLen() == 0 {
		t.Fatal("the advisor left no test window to catch up")
	}
	caught := caughtUpClones(t, g, cfg)
	db, err := Open(g, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	image := func(m forecast.Model) []byte {
		img, err := m.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	for id, m := range db.cfg.Models {
		if !bytes.Equal(image(m), image(caught[id])) {
			t.Fatalf("node %d: the opened model is not its caught-up clone", id)
		}
		if *db.mstats[id] != (ModelStats{}) {
			t.Fatalf("node %d: catching up moved the maintenance statistics: %+v", id, *db.mstats[id])
		}
	}
	var snap bytes.Buffer
	if err := SaveDatabase(&snap, db); err != nil {
		t.Fatal(err)
	}
	re, err := LoadDatabase(&snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for id, m := range re.cfg.Models {
		if !bytes.Equal(image(m), image(caught[id])) {
			t.Fatalf("node %d: LoadDatabase caught the model up again", id)
		}
	}
}

// TestAdvanceEqualsReopen: the cube's first 32 points, opened and advanced
// through points 32–35 under Never, answers every node bit for bit like the
// whole 36-point cube opened with the same fitted models — cloned before
// either Open. Catching up on Open and advancing are the same Updates.
func TestAdvanceEqualsReopen(t *testing.T) {
	short, cfg := testConfig(t, 32)
	var img bytes.Buffer
	if err := SaveConfiguration(&img, cfg); err != nil {
		t.Fatal(err)
	}
	open := func(g *cube.Graph) *DB {
		c, err := LoadConfiguration(bytes.NewReader(img.Bytes()), g)
		if err != nil {
			t.Fatal(err)
		}
		db, err := Open(g, c, Options{Strategy: Never{}})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	long := testCube(t, 36)
	advanced, reopened := open(short), open(long)
	for p := 32; p < 36; p++ {
		batch := make(map[int]float64, len(long.BaseIDs))
		for _, id := range long.BaseIDs {
			batch[id] = long.NodeValues(id)[p]
		}
		if err := advanced.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if short.Length != long.Length {
		t.Fatalf("advanced cube has %d points, want %d", short.Length, long.Length)
	}
	for id := 0; id < long.NumNodes(); id++ {
		a, err := advanced.ForecastNode(id, 6)
		if err != nil {
			t.Fatal(err)
		}
		b, err := reopened.ForecastNode(id, 6)
		if err != nil {
			t.Fatal(err)
		}
		for h := range a {
			if math.Float64bits(a[h]) != math.Float64bits(b[h]) {
				t.Fatalf("node %s, step %d: advanced %v, reopened %v", long.KeyOf(id), h+1, a, b)
			}
		}
	}
}

func TestQueryBaseNode(t *testing.T) {
	db, _, _ := testEngine(t, nil)
	res, err := db.Query("SELECT time, m FROM facts WHERE product = 'P1' AND city = 'C1' AS OF now() + '2 steps'")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Forecast || len(res.Rows) != 2 {
		t.Fatalf("result = %+v", res)
	}
	if res.NodeKey != "product=P1|city=C1" {
		t.Fatalf("node key = %q", res.NodeKey)
	}
}

func TestQueryAggregatedNode(t *testing.T) {
	db, g, _ := testEngine(t, nil)
	res, err := db.Query("SELECT time, SUM(m) FROM facts WHERE region = 'R2' GROUP BY time AS OF now() + '1 step'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Node != g.LookupKey("*|region=R2").ID {
		t.Fatalf("resolved node %q", res.NodeKey)
	}
}

func TestQueryTopNode(t *testing.T) {
	db, g, _ := testEngine(t, nil)
	res, err := db.Query("SELECT time, SUM(m) FROM facts GROUP BY time AS OF now() + '1 step'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Node != g.TopID {
		t.Fatalf("unconstrained query should hit the top node, got %q", res.NodeKey)
	}
}

func TestHistoricalQuery(t *testing.T) {
	db, g, _ := testEngine(t, nil)
	res, err := db.Query("SELECT time, SUM(m) FROM facts WHERE region = 'R1' GROUP BY time")
	if err != nil {
		t.Fatal(err)
	}
	if res.Forecast {
		t.Fatal("historical query marked as forecast")
	}
	if len(res.Rows) != g.Length {
		t.Fatalf("history rows = %d, want %d", len(res.Rows), g.Length)
	}
	n := g.LookupKey("*|region=R1")
	if res.Rows[3].Value != n.Series.Values[3] {
		t.Fatal("history values wrong")
	}
}

func TestExplain(t *testing.T) {
	db, _, _ := testEngine(t, nil)
	res, err := db.Query("EXPLAIN SELECT time, SUM(m) FROM facts WHERE region = 'R1'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == "" || len(res.Rows) != 0 {
		t.Fatalf("EXPLAIN result = %+v", res)
	}
}

func TestQueryErrors(t *testing.T) {
	db, _, _ := testEngine(t, nil)
	bad := []string{
		"",                                   // empty
		"DELETE FROM facts",                  // unsupported verb
		"SELECT FROM facts",                  // missing select list
		"SELECT time FROM",                   // missing table
		"SELECT time FROM facts WHERE x 'y'", // missing =
		"SELECT time FROM facts WHERE bogus = 'y'",                         // unknown attribute
		"SELECT time FROM facts WHERE city = 'C1' AND city = 'C2'",         // dim twice
		"SELECT time FROM facts WHERE city = 'nope'",                       // unknown member
		"SELECT time FROM facts GROUP BY bogus",                            // unknown group attribute
		"SELECT time FROM facts GROUP BY city, product",                    // two non-time groups
		"SELECT time FROM facts WHERE city = 'C1' GROUP BY city",           // grouped and constrained
		"SELECT time FROM facts AS OF now() + '1 parsec'",                  // unknown unit
		"SELECT time FROM facts AS OF now() + 'soon'",                      // malformed interval
		"SELECT time FROM facts AS OF now() + '0 steps'",                   // non-positive count
		"SELECT MAX(m) FROM facts",                                         // unsupported aggregate
		"SELECT time FROM facts AS OF now() + '1 step' WITH INTERVAL 200",  // bad confidence
		"SELECT time FROM facts AS OF now() + '1 step' WITH INTERVAL abc",  // non-numeric
		"SELECT time FROM facts trailing",                                  // trailing input
		"SELECT time FROM facts WHERE city = 'C1' ; DROP",                  // junk char
		"SELECT time FROM facts AS OF now() + '1 step' WITH INTERVAL NaN",  // NaN confidence
		"SELECT time FROM facts AS OF now() + '9223372036854775807 steps'", // makeslice overflow
		"SELECT time FROM facts AS OF now() + '99999999999 years'",         // int overflow
		"SELECT time FROM facts AS OF now() + '10001 steps'",               // over maxHorizon
	}
	for _, q := range bad {
		if _, err := db.Query(q); err == nil {
			t.Errorf("query %q should fail", q)
		}
	}
}

func TestHorizonUnits(t *testing.T) {
	db, _, _ := testEngine(t, nil)
	// Default step duration is 24h, so '1 week' = 7 steps.
	res, err := db.Query("SELECT time, SUM(m) FROM facts GROUP BY time AS OF now() + '1 week'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("'1 week' horizon = %d steps, want 7", len(res.Rows))
	}
	res, err = db.Query("SELECT time, SUM(m) FROM facts GROUP BY time AS OF now() + '3 steps'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("'3 steps' horizon = %d", len(res.Rows))
	}
}

func TestInsertBatching(t *testing.T) {
	db, g, _ := testEngine(t, nil)
	lenBefore := g.Length
	// Insert for all but one base series: no advance yet.
	for _, id := range g.BaseIDs[:len(g.BaseIDs)-1] {
		if err := db.InsertBase(id, 10); err != nil {
			t.Fatal(err)
		}
	}
	if g.Length != lenBefore {
		t.Fatal("graph advanced before the batch was complete")
	}
	if db.Stats().PendingInserts != len(g.BaseIDs)-1 {
		t.Fatalf("pending = %d", db.Stats().PendingInserts)
	}
	// Completing the batch advances time everywhere.
	if err := db.InsertBase(g.BaseIDs[len(g.BaseIDs)-1], 10); err != nil {
		t.Fatal(err)
	}
	if g.Length != lenBefore+1 {
		t.Fatal("graph did not advance after batch completion")
	}
	if db.Stats().Batches != 1 || db.Stats().PendingInserts != 0 {
		t.Fatalf("stats = %+v", db.Stats())
	}
	// Aggregates received the sum.
	top := g.Node(g.TopID).Series.Values[lenBefore]
	if math.Abs(top-10*float64(len(g.BaseIDs))) > 1e-9 {
		t.Fatalf("top new value = %v", top)
	}
}

func TestInsertDuplicateInBatch(t *testing.T) {
	db, g, _ := testEngine(t, nil)
	if err := db.InsertBase(g.BaseIDs[0], 1); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertBase(g.BaseIDs[0], 2); err == nil {
		t.Fatal("duplicate insert in one batch should fail")
	}
}

func TestInsertByMembers(t *testing.T) {
	db, _, _ := testEngine(t, nil)
	if err := db.Insert([]string{"P1", "C1"}, 5); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert([]string{"P9", "C1"}, 5); err == nil {
		t.Fatal("unknown member should fail")
	}
	if err := db.Insert([]string{"P1"}, 5); err == nil {
		t.Fatal("wrong arity should fail")
	}
}

func TestExecInsert(t *testing.T) {
	db, _, _ := testEngine(t, nil)
	if err := db.Exec("INSERT INTO facts VALUES ('P1', 'C1', 12.5)"); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Inserts != 1 {
		t.Fatal("insert not counted")
	}
	for _, bad := range []string{
		"INSERT INTO facts VALUES ()",
		"INSERT INTO facts VALUES ('P1', 'C1')",      // missing measure
		"INSERT facts VALUES ('P1', 'C1', 1)",        // missing INTO
		"INSERT INTO facts VALUES ('P1', 'C1', 1) x", // trailing
		"INSERT INTO facts VALUES ('P1', 'C1', 'x')", // measure not numeric
	} {
		if err := db.Exec(bad); err == nil {
			t.Errorf("Exec(%q) should fail", bad)
		}
	}
}

func TestMaintenanceUpdatesModels(t *testing.T) {
	db, g, cfg := testEngine(t, nil)
	before, err := db.ForecastNode(g.TopID, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Advance four time steps with elevated values: the incremental
	// model state must shift forecasts upward.
	for step := 0; step < 4; step++ {
		for _, id := range g.BaseIDs {
			if err := db.InsertBase(id, 200); err != nil {
				t.Fatal(err)
			}
		}
	}
	after, err := db.ForecastNode(g.TopID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if after[0] <= before[0] {
		t.Fatalf("forecast did not react to new data: %v -> %v", before[0], after[0])
	}
	_ = cfg
}

func TestTimeBasedInvalidation(t *testing.T) {
	db, g, _ := testEngine(t, TimeBased{Every: 2})
	for step := 0; step < 2; step++ {
		for _, id := range g.BaseIDs {
			if err := db.InsertBase(id, 50); err != nil {
				t.Fatal(err)
			}
		}
	}
	if db.InvalidCount() == 0 {
		t.Fatal("time-based strategy should have invalidated models")
	}
	// A query touching an invalid model triggers lazy re-estimation.
	if _, err := db.ForecastNode(g.TopID, 1); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Reestimations == 0 {
		t.Fatal("query should have re-estimated the invalid model")
	}
}

func TestThresholdInvalidation(t *testing.T) {
	db, g, _ := testEngine(t, ThresholdBased{MaxError: 0.05})
	// Push wildly different values so the rolling error explodes.
	for step := 0; step < 6; step++ {
		v := 1.0
		if step%2 == 0 {
			v = 500
		}
		for _, id := range g.BaseIDs {
			if err := db.InsertBase(id, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if db.InvalidCount() == 0 {
		t.Fatal("threshold strategy should have invalidated models under erratic data")
	}
}

// TestRollingErrorCountsExactSteps: the rolling one-step error follows eq. 4,
// which counts a step whose actual and forecast are both 0 as exact, so the
// error of an intermittent series falls while its model forecasts the zeros;
// a step without a defined error (NaN) leaves it unchanged.
func TestRollingErrorCountsExactSteps(t *testing.T) {
	g, err := cube.NewGraph([]cube.Dimension{cube.NewDimension("loc", "loc")}, []cube.BaseSeries{
		{Members: []string{"A"}, Series: timeseries.New([]float64{4, 0, 4, 0, 4, 0, 4, 4}, 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	id := g.BaseIDs[0]
	cfg := core.NewConfiguration(g, 6)
	m := forecast.NewNaive()
	if err := m.Fit(g.Node(id).Series); err != nil {
		t.Fatal(err)
	}
	cfg.Models[id] = m
	cfg.Schemes[id] = derivation.DirectScheme(id)
	db, err := Open(g, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	step := func(v, want float64) {
		t.Helper()
		if err := db.InsertBase(id, v); err != nil {
			t.Fatal(err)
		}
		if got := db.Health()[g.KeyOf(id)].RollingError; got != want {
			t.Fatalf("after %v: rolling error %v, want %v", v, got, want)
		}
	}
	// The naive forecast 4 misses the first 0 completely: error 1.
	want := 0.1
	step(0, want)
	// From then on it forecasts every 0 exactly.
	for i := 0; i < 3; i++ {
		want = 0.9 * want
		step(0, want)
	}
	step(math.NaN(), want)
}

func TestNeverStrategy(t *testing.T) {
	db, g, _ := testEngine(t, Never{})
	for step := 0; step < 5; step++ {
		for _, id := range g.BaseIDs {
			if err := db.InsertBase(id, 500); err != nil {
				t.Fatal(err)
			}
		}
	}
	if db.InvalidCount() != 0 {
		t.Fatal("Never strategy must not invalidate")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db, g, cfg := testEngine(t, nil)
	_ = db
	var buf bytes.Buffer
	if err := SaveConfiguration(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadConfiguration(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumModels() != cfg.NumModels() {
		t.Fatalf("models %d != %d", restored.NumModels(), cfg.NumModels())
	}
	if restored.TrainLen != cfg.TrainLen {
		t.Fatal("train length lost")
	}
	for _, id := range []int{g.TopID, g.BaseIDs[0]} {
		a, err := cfg.Forecast(id, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.Forecast(id, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-9 {
				t.Fatalf("node %d forecast changed after round trip", id)
			}
		}
	}
}

func TestLoadConfigurationUnknownNode(t *testing.T) {
	db, g, cfg := testEngine(t, nil)
	_ = db
	var buf bytes.Buffer
	if err := SaveConfiguration(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	// A graph of a different data set must reject the image.
	loc := cube.NewDimension("loc", "loc")
	other, err := cube.NewGraph([]cube.Dimension{loc},
		[]cube.BaseSeries{{Members: []string{"A"}, Series: timeseries.New(make([]float64, 36), 4)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfiguration(&buf, other); err == nil {
		t.Fatal("foreign graph should reject the configuration image")
	}
	_ = g
}

func TestLoadConfigurationGarbage(t *testing.T) {
	db, g, _ := testEngine(t, nil)
	_ = db
	if _, err := LoadConfiguration(strings.NewReader("not a gob"), g); err == nil {
		t.Fatal("garbage input should fail")
	}
}

func TestLexerEdgeCases(t *testing.T) {
	kinds := func(src string) (out []tokenKind, err error) {
		l := lexer{src: src}
		for {
			t := l.next()
			out = append(out, t.kind)
			if t.kind == tokEOF || t.kind == tokErr {
				return out, l.err
			}
		}
	}
	if _, err := kinds("SELECT 'unterminated"); err == nil {
		t.Fatal("unterminated string should fail")
	}
	if _, err := kinds("SELECT ???"); err == nil {
		t.Fatal("unknown character should fail")
	}
	got, err := kinds("a = 'b'")
	if want := []tokenKind{tokIdent, tokPunct, tokString, tokEOF}; err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("lex = %v, %v", got, err)
	}
}

func TestWeightMaintainedIncrementally(t *testing.T) {
	db, g, cfg := testEngine(t, nil)
	// Pick a node answered by disaggregation: its source covers it, so
	// inflating the target's subtree raises both the live weight and the
	// source forecast.
	target := -1
	for id, sc := range cfg.Schemes {
		if sc.Kind == derivation.Disaggregation && len(sc.Sources) == 1 {
			target = id
			break
		}
	}
	if target < 0 {
		t.Skip("no disaggregation scheme in this configuration")
	}
	// Shift the share of the target strongly and verify the live weight
	// moves with it.
	before, err := db.ForecastNode(target, 1)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 8; step++ {
		for _, id := range g.BaseIDs {
			v := 10.0
			if g.Covers(target, id) {
				v = 300.0 // the target's subtree explodes
			}
			if err := db.InsertBase(id, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	after, err := db.ForecastNode(target, 1)
	if err != nil {
		t.Fatal(err)
	}
	if after[0] <= before[0] {
		t.Fatalf("derived forecast ignored the share shift: %v -> %v", before[0], after[0])
	}
}

func TestStatsAccounting(t *testing.T) {
	db, g, _ := testEngine(t, nil)
	if _, err := db.ForecastNode(g.TopID, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT time, SUM(m) FROM facts GROUP BY time AS OF now() + '1 step'"); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.Queries != 2 {
		t.Fatalf("queries = %d, want 2", s.Queries)
	}
	if s.QueryTime <= 0 {
		t.Fatal("query time not recorded")
	}
}

func TestGroupByLevelDrillDown(t *testing.T) {
	db, g, _ := testEngine(t, nil)
	res, err := db.Query("SELECT time, city, SUM(m) FROM facts WHERE product = 'P1' GROUP BY time, city AS OF now() + '2 steps'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 4 {
		t.Fatalf("groups = %d, want 4 cities", len(res.Groups))
	}
	prev := ""
	for _, grp := range res.Groups {
		if grp.Member <= prev {
			t.Fatalf("groups not member-ordered: %q after %q", grp.Member, prev)
		}
		prev = grp.Member
		if len(grp.Rows) != 2 {
			t.Fatalf("group %s rows = %d", grp.Member, len(grp.Rows))
		}
		want := g.LookupKey("product=P1|city=" + grp.Member)
		if want == nil || grp.Node != want.ID {
			t.Fatalf("group %s resolved to node %q", grp.Member, grp.NodeKey)
		}
	}
	// Backward-compatible single-group accessors point at the first group.
	if res.Node != res.Groups[0].Node || len(res.Rows) != 2 {
		t.Fatal("Result convenience fields inconsistent")
	}
}

func TestGroupByRegionRollup(t *testing.T) {
	db, _, _ := testEngine(t, nil)
	res, err := db.Query("SELECT time, region, SUM(m) FROM facts GROUP BY time, region AS OF now() + '1 step'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %d, want 2 regions", len(res.Groups))
	}
	if res.Groups[0].Member != "R1" || res.Groups[1].Member != "R2" {
		t.Fatalf("members = %v, %v", res.Groups[0].Member, res.Groups[1].Member)
	}
}

func TestGroupByHistorical(t *testing.T) {
	db, g, _ := testEngine(t, nil)
	res, err := db.Query("SELECT time, city, SUM(m) FROM facts WHERE product = 'P2' GROUP BY time, city")
	if err != nil {
		t.Fatal(err)
	}
	if res.Forecast {
		t.Fatal("historical group query marked as forecast")
	}
	for _, grp := range res.Groups {
		if len(grp.Rows) != g.Length {
			t.Fatalf("group %s history rows = %d", grp.Member, len(grp.Rows))
		}
	}
}

func TestAvgAggregate(t *testing.T) {
	db, g, _ := testEngine(t, nil)
	sum, err := db.Query("SELECT time, SUM(m) FROM facts WHERE region = 'R1' GROUP BY time")
	if err != nil {
		t.Fatal(err)
	}
	avg, err := db.Query("SELECT time, AVG(m) FROM facts WHERE region = 'R1' GROUP BY time")
	if err != nil {
		t.Fatal(err)
	}
	// *|R1 covers 2 products × 2 cities = 4 base series.
	n := g.LookupKey("*|region=R1")
	bases := g.CoveredBaseCount(n.ID)
	if bases != 4 {
		t.Fatalf("expected 4 covered base series, got %d", bases)
	}
	for i := range sum.Rows {
		want := sum.Rows[i].Value / float64(bases)
		if math.Abs(avg.Rows[i].Value-want) > 1e-9 {
			t.Fatalf("AVG row %d = %v, want %v", i, avg.Rows[i].Value, want)
		}
	}
}

func TestAvgForecast(t *testing.T) {
	db, _, _ := testEngine(t, nil)
	sum, err := db.Query("SELECT time, SUM(m) FROM facts GROUP BY time AS OF now() + '2 steps'")
	if err != nil {
		t.Fatal(err)
	}
	avg, err := db.Query("SELECT time, AVG(m) FROM facts GROUP BY time AS OF now() + '2 steps'")
	if err != nil {
		t.Fatal(err)
	}
	for i := range sum.Rows {
		if math.Abs(avg.Rows[i].Value*8-sum.Rows[i].Value) > 1e-9 {
			t.Fatalf("AVG forecast row %d inconsistent with SUM/8", i)
		}
	}
}

func TestPredictionIntervals(t *testing.T) {
	db, _, _ := testEngine(t, nil)
	res, err := db.Query("SELECT time, SUM(m) FROM facts GROUP BY time AS OF now() + '4 steps' WITH INTERVAL 95")
	if err != nil {
		t.Fatal(err)
	}
	prevSpread := 0.0
	for i, r := range res.Rows {
		if !(r.Lo <= r.Value && r.Value <= r.Hi) {
			t.Fatalf("row %d: interval [%v, %v] does not bracket %v", i, r.Lo, r.Hi, r.Value)
		}
		spread := r.Hi - r.Lo
		if spread <= 0 {
			t.Fatalf("row %d: empty interval", i)
		}
		if spread < prevSpread {
			t.Fatalf("interval should widen with the horizon: %v after %v", spread, prevSpread)
		}
		prevSpread = spread
	}
	// Wider confidence → wider interval.
	res99, err := db.Query("SELECT time, SUM(m) FROM facts GROUP BY time AS OF now() + '4 steps' WITH INTERVAL 99")
	if err != nil {
		t.Fatal(err)
	}
	if res99.Rows[0].Hi-res99.Rows[0].Lo <= res.Rows[0].Hi-res.Rows[0].Lo {
		t.Fatal("99% interval should be wider than 95%")
	}
}

// TestIntervalHugeResidual: a residual deviation whose square overflows
// still answers WITH INTERVAL with finite bounds around the forecast.
func TestIntervalHugeResidual(t *testing.T) {
	g := testCube(t, 36)
	cfg := core.NewConfiguration(g, g.Length)
	cfg.Models[g.TopID] = &forecast.Naive{Last: 100, ResidStd: 1e200, IsFitted: true}
	cfg.Schemes[g.TopID] = derivation.DirectScheme(g.TopID)
	db, err := Open(g, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT time, SUM(m) FROM facts GROUP BY time AS OF now() + '2 steps' WITH INTERVAL 95")
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Rows {
		if math.IsInf(r.Lo, 0) || math.IsInf(r.Hi, 0) || !(r.Lo < r.Value && r.Value < r.Hi) {
			t.Fatalf("row %d: interval [%v, %v] around %v, want finite bounds bracketing it", i, r.Lo, r.Hi, r.Value)
		}
	}
}

func TestIntervalAbsentByDefault(t *testing.T) {
	db, _, _ := testEngine(t, nil)
	res, err := db.Query("SELECT time, SUM(m) FROM facts GROUP BY time AS OF now() + '2 steps'")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.Lo != 0 || r.Hi != 0 {
			t.Fatal("Lo/Hi must stay zero without WITH INTERVAL")
		}
	}
}

func TestDatabaseSnapshotRoundTrip(t *testing.T) {
	db, g, _ := testEngine(t, nil)
	// Advance a full batch plus a partial one, so the snapshot carries
	// both new observations and a pending batch.
	for _, id := range g.BaseIDs {
		if err := db.InsertBase(id, 42); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range g.BaseIDs[:3] {
		if err := db.InsertBase(id, 7); err != nil {
			t.Fatal(err)
		}
	}
	want, err := db.ForecastNode(g.TopID, 3)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := SaveDatabase(&buf, db); err != nil {
		t.Fatal(err)
	}
	db2, err := LoadDatabase(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Graph().Length() != g.Length {
		t.Fatalf("restored length %d, want %d", db2.Graph().Length(), g.Length)
	}
	if db2.Stats().PendingInserts != 3 {
		t.Fatalf("restored pending = %d, want 3", db2.Stats().PendingInserts)
	}
	top := db2.Graph().TopID()
	got, err := db2.ForecastNode(top, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("forecast changed after snapshot round trip: %v vs %v", got, want)
		}
	}
	// The maintenance counters survive the round trip: the saved engine
	// had applied one full batch plus the 3 pending rows, and the counter
	// keeps counting from there (cluster coordinators realign restarted
	// shards against this counter, so a reset would break replay).
	if n := db2.Stats().Inserts; n != len(g.BaseIDs)+3 {
		t.Fatalf("restored inserts = %d, want %d", n, len(g.BaseIDs)+3)
	}
	if db2.Stats().Batches != 1 {
		t.Fatalf("restored batches = %d, want 1", db2.Stats().Batches)
	}
	// The restored engine keeps working: complete the pending batch.
	for _, id := range db2.Graph().BaseIDs()[3:] {
		if err := db2.InsertBase(id, 7); err != nil {
			t.Fatal(err)
		}
	}
	if db2.Stats().Batches != 2 {
		t.Fatalf("batches = %d, want 2", db2.Stats().Batches)
	}
}

// TestSaveImagesDeterministic: two saves of one configuration are the same
// bytes, and so are two snapshots of one engine holding a half-filled
// batch. Both used to be built by iterating over maps — the configuration,
// the hierarchies' parent maps and the pending rows — so on a 500-node cube
// two saves differed. Each image also loads into what saves it again byte
// for byte.
func TestSaveImagesDeterministic(t *testing.T) {
	g, err := datasets.GenCube(1, datasets.CubeGenForNodes(500, 2)).Graph()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := core.Run(g, core.Options{Seed: 1, FixedGamma: true, Gamma0: 0.5, MaxIterations: 12, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(g, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	half := make(map[int]float64)
	for _, id := range g.BaseIDs[:len(g.BaseIDs)/2] {
		half[id] = float64(id)
	}
	if err := db.InsertBatch(half); err != nil {
		t.Fatal(err)
	}
	var cfgs, imgs [2]bytes.Buffer
	for i := range imgs {
		if err := SaveConfiguration(&cfgs[i], cfg); err != nil {
			t.Fatal(err)
		}
		if err := SaveDatabase(&imgs[i], db); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(cfgs[0].Bytes(), cfgs[1].Bytes()) {
		t.Error("SaveConfiguration: two saves differ")
	}
	if !bytes.Equal(imgs[0].Bytes(), imgs[1].Bytes()) {
		t.Error("SaveDatabase: two saves differ")
	}
	reCfg, err := LoadConfiguration(bytes.NewReader(cfgs[0].Bytes()), g)
	if err != nil {
		t.Fatal(err)
	}
	reDB, err := LoadDatabase(bytes.NewReader(imgs[0].Bytes()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var cfgAgain, imgAgain bytes.Buffer
	if err := SaveConfiguration(&cfgAgain, reCfg); err != nil {
		t.Fatal(err)
	}
	if err := SaveDatabase(&imgAgain, reDB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cfgAgain.Bytes(), cfgs[0].Bytes()) {
		t.Error("SaveConfiguration(LoadConfiguration(x)) differs from x")
	}
	if !bytes.Equal(imgAgain.Bytes(), imgs[0].Bytes()) {
		t.Error("SaveDatabase(LoadDatabase(x)) differs from x")
	}

	// What the engine answered is no part of its state: after queries, its
	// image decodes equal to that of a twin loaded before them.
	var first bytes.Buffer
	if err := SaveDatabase(&first, db); err != nil {
		t.Fatal(err)
	}
	twin, err := LoadDatabase(&first, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT time, SUM(m) FROM facts AS OF now() + '2 steps'",
		"SELECT time, SUM(m) FROM facts GROUP BY time, d0l1 AS OF now() + '3 steps' WITH INTERVAL 90",
		"SELECT time, AVG(m) FROM facts GROUP BY time, d0l1",
	} {
		for range 2 {
			if _, err := db.Query(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := db.ForecastNode(g.TopID, 4); err != nil {
		t.Fatal(err)
	}
	var after [2]bytes.Buffer
	for i, e := range []*DB{db, twin} {
		if err := SaveDatabase(&after[i], e); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(after[0].Bytes(), after[1].Bytes()) {
		t.Error("SaveDatabase: a queried engine and its unqueried twin save different images")
	}
}

// TestReloadStartsCold: an engine reopened from a snapshot — through
// LoadDatabase, and through a checkpoint, a crash and OpenDurable's
// recovery — has answered no query. A warm-up that re-planned and
// re-derived the saved engine's working set at load once counted there as
// queries, plans and derivations, latencies included.
func TestReloadStartsCold(t *testing.T) {
	ask := func(t *testing.T, db *DB) {
		for _, q := range []string{
			"SELECT time, SUM(m) FROM facts AS OF now() + '2 steps'",
			"SELECT time, SUM(m) FROM facts WHERE city = 'C1' AS OF now() + '1 step' WITH INTERVAL 95",
		} {
			if _, err := db.Query(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	cold := func(t *testing.T, db *DB) {
		if m := db.Metrics(); m.Queries != 0 || m.QueryLatency.Count != 0 || m.PlanCacheMisses != 0 || m.ForecastCacheMisses != 0 {
			t.Fatalf("reopened engine: queries=%d latencies=%d plans=%d derivations=%d, want 0",
				m.Queries, m.QueryLatency.Count, m.PlanCacheMisses, m.ForecastCacheMisses)
		}
	}
	t.Run("LoadDatabase", func(t *testing.T) {
		db, _, _ := testEngine(t, nil)
		ask(t, db)
		var buf bytes.Buffer
		if err := SaveDatabase(&buf, db); err != nil {
			t.Fatal(err)
		}
		re, err := LoadDatabase(&buf, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cold(t, re)
	})
	t.Run("OpenDurable", func(t *testing.T) {
		fs := segment.NewMemFS()
		dopts := DurableOptions{Dir: "db", FS: fs}
		dur, err := OpenDurable(dopts, Options{}, func() (*DB, error) {
			db, _, _ := testEngine(t, nil)
			return db, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ask(t, dur.DB())
		if err := dur.DB().InsertBatch(fullBatch(dur.DB(), 0)); err != nil {
			t.Fatal(err)
		}
		if err := dur.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		ask(t, dur.DB())
		fs.Crash()
		re, err := OpenDurable(dopts, Options{}, func() (*DB, error) {
			return nil, errors.New("a checkpointed directory must not be rebuilt")
		})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		cold(t, re.DB())
	})
}

func TestLoadDatabaseGarbage(t *testing.T) {
	if _, err := LoadDatabase(strings.NewReader("junk"), Options{}); err == nil {
		t.Fatal("garbage image should fail")
	}
}

// TestLoadDatabaseBaseWithoutSeries: an image whose value records stop
// after base series 2 — every record whole and CRC-valid — is refused with
// an error naming the base, not built into a short graph.
func TestLoadDatabaseBaseWithoutSeries(t *testing.T) {
	db, g, _ := testEngine(t, Never{})
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, db); err != nil {
		t.Fatal(err)
	}
	img := reframe(t, buf.Bytes(), func(typ byte, p []byte) []byte {
		if typ == recValues {
			return p[:2*8*g.Length]
		}
		return p
	})
	if _, err := LoadDatabase(bytes.NewReader(img), Options{}); err == nil || !strings.Contains(err.Error(), "base series 2 has no values") {
		t.Fatalf("LoadDatabase of an image whose values stop after base series 2: %v", err)
	}
}

// reframe rebuilds an image record by record, each payload replaced by
// edit's result under a fresh frame: a CRC-valid image of the caller's
// making.
func reframe(t testing.TB, img []byte, edit func(typ byte, payload []byte) []byte) []byte {
	t.Helper()
	var out []byte
	for off := int64(0); off < int64(len(img)); {
		typ, payload, next, err := segment.ReadRecord(img, off)
		if err != nil {
			t.Fatal(err)
		}
		out = segment.AppendRecord(out, typ, edit(typ, payload))
		off = next
	}
	return out
}

// TestParserNeverPanics feeds pseudo-random token soup into the parser; it
// must return errors, never panic.
func TestParserNeverPanics(t *testing.T) {
	words := []string{"SELECT", "FROM", "WHERE", "GROUP", "BY", "AS", "OF", "now", "time",
		"SUM", "AVG", "WITH", "INTERVAL", "facts", "city", "=", "'C1'", "(", ")", ",", "+",
		"'1 day'", "AND", "*", "INSERT", "INTO", "VALUES", "12.5", "''"}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 3000; i++ {
		n := rng.Intn(12)
		parts := make([]string, n)
		for j := range parts {
			parts[j] = words[rng.Intn(len(words))]
		}
		q := strings.Join(parts, " ")
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", q, r)
				}
			}()
			_ = parseQuery(q, new(selectStmt))
		}()
	}
}

// TestGeneratedValidQueriesParse builds structurally valid queries from the
// engine's own schema and checks every one parses and resolves.
func TestGeneratedValidQueriesParse(t *testing.T) {
	db, g, _ := testEngine(t, nil)
	rng := rand.New(rand.NewSource(11))
	aggs := []string{"SUM(m)", "AVG(m)"}
	for i := 0; i < 100; i++ {
		n := g.Node(rng.Intn(g.NumNodes()))
		q := "SELECT time, " + aggs[rng.Intn(2)] + " FROM facts"
		first := true
		for d, cell := range n.Coord {
			dim := &g.Dims[d]
			if cell.IsAll(dim) {
				continue
			}
			if first {
				q += " WHERE "
				first = false
			} else {
				q += " AND "
			}
			q += dim.Levels[cell.Level] + " = '" + cell.Value + "'"
		}
		q += " GROUP BY time AS OF now() + '1 step'"
		if rng.Intn(2) == 0 {
			q += " WITH INTERVAL 90"
		}
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("generated query %q failed: %v", q, err)
		}
		if res.Node != n.ID {
			t.Fatalf("query %q resolved to %q, want %q", q, res.NodeKey, n.Coord.Key(g.Dims))
		}
	}
}

func TestIntervalsOverAggregationScheme(t *testing.T) {
	// A bottom-up configuration answers aggregates from many sources; the
	// interval must combine all source variances.
	db, g, _ := testEngine(t, nil)
	_ = db
	buCfg, err := hierarchical.BottomUp(g, hierarchical.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bu, err := Open(g, buCfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := bu.Query("SELECT time, SUM(m) FROM facts GROUP BY time AS OF now() + '3 steps' WITH INTERVAL 95")
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Rows {
		if !(r.Lo < r.Value && r.Value < r.Hi) {
			t.Fatalf("row %d: interval [%v, %v] vs %v", i, r.Lo, r.Hi, r.Value)
		}
	}
	// The top aggregates 8 independent sources; its absolute spread must
	// exceed a single base node's spread.
	base, err := bu.Query("SELECT time, m FROM facts WHERE product = 'P1' AND city = 'C1' AS OF now() + '3 steps' WITH INTERVAL 95")
	if err != nil {
		t.Fatal(err)
	}
	if (res.Rows[0].Hi - res.Rows[0].Lo) <= (base.Rows[0].Hi - base.Rows[0].Lo) {
		t.Fatal("aggregate interval should be wider in absolute terms than a single base interval")
	}
}

func TestHealthSnapshot(t *testing.T) {
	db, g, cfg := testEngine(t, TimeBased{Every: 2})
	for step := 0; step < 3; step++ {
		for _, id := range g.BaseIDs {
			if err := db.InsertBase(id, 30); err != nil {
				t.Fatal(err)
			}
		}
	}
	h := db.Health()
	if len(h) != cfg.NumModels() {
		t.Fatalf("health entries = %d, want %d", len(h), cfg.NumModels())
	}
	sawInvalid := false
	for key, mh := range h {
		if g.LookupKey(key) == nil {
			t.Fatalf("health key %q not a node", key)
		}
		if mh.Family == "" {
			t.Fatal("family missing")
		}
		if mh.Invalid {
			sawInvalid = true
		}
	}
	if !sawInvalid {
		t.Fatal("time-based strategy after 3 batches should have invalid models")
	}
}
