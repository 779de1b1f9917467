package f2db

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/datasets"
	"cubefc/internal/segment"
)

// Gates and the twin of the durable write path (DESIGN.md §6, §8): a time
// point is one dense column from the pending batch to the graph, and a compaction
// encodes into one buffer.

// cubeDurable opens a durable engine over MemFS on a synthetic two-dimension
// cube of about the given node count, every node materialized, with an empty
// configuration: what is measured is the write path — pending column, commit gate,
// WAL, Graph.Advance, compaction — not model maintenance.
func cubeDurable(t testing.TB, nodes int) (*Durable, []int) {
	t.Helper()
	d := datasets.GenCube(1, datasets.CubeGenForNodes(nodes, 2))
	dur, err := OpenDurable(DurableOptions{Dir: "db", FS: segment.NewMemFS()}, Options{Strategy: Never{}}, func() (*DB, error) {
		g, err := d.Graph()
		if err != nil {
			return nil, err
		}
		g.MaterializeAll()
		return Open(g, core.NewConfiguration(g, 12), Options{Strategy: Never{}})
	})
	if err != nil {
		t.Fatal(err)
	}
	return dur, dur.DB().Graph().BaseIDs()
}

// timePoint is a full batch in InsertBatch's boundary form.
func timePoint(ids []int, k int) map[int]float64 {
	batch := make(map[int]float64, len(ids))
	for _, id := range ids {
		batch[id] = 50 + 10*math.Sin(float64(k)) + float64(id%97)/7
	}
	return batch
}

// TestCompactAllocs: folding 32 generations into a segment allocates the same
// small number of objects for 676 base series as for 6 889 — the image, the
// generation column, the series slice, the keys in one string and what the
// file protocol takes (file names, MemFS entries, the new log file's header;
// 35 in all) — where the
// scratch-and-copy encoder took about seven per series. "The same" is to
// within the printers fmt's pool loses to a collection between two runs.
func TestCompactAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const runs, generations = 2, 32
	measure := func(nodes int) float64 {
		// AllocsPerRun calls once to warm up, then runs times: every call
		// needs a directory of its own with 32 generations left to fold.
		durs := make([]*Durable, runs+1)
		for i := range durs {
			dur, ids := cubeDurable(t, nodes)
			for k := 0; k < generations; k++ {
				if err := dur.DB().InsertBatch(timePoint(ids, k)); err != nil {
					t.Fatal(err)
				}
			}
			durs[i] = dur
		}
		i := 0
		n := testing.AllocsPerRun(runs, func() {
			if err := durs[i].Compact(); err != nil {
				t.Fatal(err)
			}
			i++
		})
		for _, dur := range durs {
			if m := dur.DB().Metrics(); m.SegmentCompactions != 1 {
				t.Fatalf("%d compactions, want 1", m.SegmentCompactions)
			}
		}
		return n
	}
	small, large := measure(1_000), measure(10_000)
	t.Logf("compaction: %v objects for 676 series, %v for 6 889", small, large)
	if math.Abs(small-large) > 4 || large > 48 {
		t.Fatalf("a compaction allocates %v objects for 676 series and %v for 6 889; want equal within 4 and ≤ 48", small, large)
	}
}

// TestDurableAdvanceAllocs: one full time point through InsertBatch on a
// durable engine — pending column, commit gate, WAL append, Graph.Advance — allocates
// a constant whatever the number of series: InsertBatch's sorted copy of its
// map, and now and then MemFS growing the log file. Before the column it also
// built a map and an entry slice of one element per base series and sorted
// the slice. A time point at which every series is full and grows adds one
// allocation, the rows Graph.Advance carves for all of them; it used to add
// one per series. Each kind of time point is averaged over its calls.
func TestDurableAdvanceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	measure := func(nodes int) (still, grows float64) {
		dur, ids := cubeDurable(t, nodes)
		var calls, mallocs [2]uint64 // by whether the time point grows the series
		k := 0
		for ; calls[1] < 2; k++ {
			batch := timePoint(ids, k)
			kind := 0
			if v := dur.DB().graph.NodeValues(ids[0]); len(v) == cap(v) {
				kind = 1
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := dur.DB().InsertBatch(batch)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if k > 0 { // the first time point also makes Latest's table
				calls[kind]++
				mallocs[kind] += after.Mallocs - before.Mallocs
			}
		}
		if got, want := dur.DB().Metrics().WALAppends, int64(k); got != want {
			t.Fatalf("%d WAL appends for %d time points", got, want)
		}
		return float64(mallocs[0]) / float64(calls[0]), float64(mallocs[1]) / float64(calls[1])
	}
	for _, nodes := range []int{1_000, 10_000} {
		still, grows := measure(nodes)
		t.Logf("%d nodes: a time point allocates %v objects, one that grows every series %v", nodes, still, grows)
		if still > 4 || grows > 5 {
			t.Fatalf("%d nodes: a time point allocates %v objects and one that grows every series %v; want ≤ 4 and ≤ 5", nodes, still, grows)
		}
	}
}

// mapPendingOracle is the pending batch as the engine kept it before the
// dense column: a map keyed by base node ID behind one lock, complete when it holds every base series, handed on whole when
// it is. Rows are offered one at a time in the engine's order (sortRows) to
// a copy; a row whose base series already holds a value in the batch being
// collected is the duplicate error, and the copy is dropped, so a rejected
// statement changes nothing.
type mapPendingOracle struct {
	mu       sync.Mutex
	bases    int
	pending  map[int]float64
	advanced []map[int]float64
}

func (o *mapPendingOracle) insert(rows []baseRow) error {
	rows = slices.Clone(rows)
	sortRows(rows)
	o.mu.Lock()
	defer o.mu.Unlock()
	pending, advanced := maps.Clone(o.pending), o.advanced
	for _, r := range rows {
		if _, dup := pending[r.id]; dup {
			return fmt.Errorf("f2db: duplicate insert for base node %d in current batch", r.id)
		}
		pending[r.id] = r.value
		if len(pending) == o.bases {
			advanced = append(advanced, pending)
			pending = make(map[int]float64, o.bases)
		}
	}
	o.pending, o.advanced = pending, advanced
	return nil
}

// rowsSQL renders rows as one multi-row INSERT over a gridEngine graph.
func rowsSQL(g *cube.Graph, rows []baseRow) string {
	var b strings.Builder
	b.WriteString("INSERT INTO facts VALUES ")
	for i, r := range rows {
		if i > 0 {
			b.WriteString(", ")
		}
		c := g.CoordOf(r.id)
		fmt.Fprintf(&b, "('%s', '%s', %v)", c[0].Value, c[1].Value, r.value)
	}
	return b.String()
}

// TestStripedInsertTwin holds the dense column against the single-map oracle
// under eight racing inserters, through all three entry points (Exec,
// InsertBatch, InsertBase). Each round has racing phases whose statements
// commute — disjoint fills; statements that run into a duplicate, which
// change nothing; the rows those left out — and then one statement that
// supplies the batch's last values, completes it in mid-statement and puts
// its remaining rows into the next batch. Every statement must return what
// the oracle returns for it, the held values must agree after every phase,
// and the advances — their number and every value of each — at the end.
func TestStripedInsertTwin(t *testing.T) {
	const inserters, rounds = 8, 12
	db, g := gridEngine(t, [2]string{"product", "city"}, numbered("P", 16), numbered("C", 16), Options{})
	ids := g.BaseIDs
	len0 := g.Length
	o := &mapPendingOracle{bases: len(ids), pending: make(map[int]float64, len(ids))}
	// The lowest eighth of the base IDs supplies each batch's last values.
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	lastCut := sorted[len(ids)/8]

	// phase offers stmts[w] from inserter w, all inserters racing, after the
	// oracle took the same statements one after the other, and compares.
	type stmt struct {
		rows []baseRow
		via  string // "exec", "batch" or "base" (one row)
	}
	phase := func(name string, stmts [][]stmt) {
		t.Helper()
		want := make([][]error, len(stmts))
		for w, ss := range stmts {
			for _, s := range ss {
				want[w] = append(want[w], o.insert(s.rows))
			}
		}
		got := make([][]error, len(stmts))
		var wg sync.WaitGroup
		for w, ss := range stmts {
			wg.Add(1)
			go func(w int, ss []stmt) {
				defer wg.Done()
				for _, s := range ss {
					var err error
					switch s.via {
					case "exec":
						err = db.Exec(rowsSQL(g, s.rows))
					case "batch":
						values := make(map[int]float64, len(s.rows))
						for _, r := range s.rows {
							values[r.id] = r.value
						}
						err = db.InsertBatch(values)
					default:
						err = db.InsertBase(s.rows[0].id, s.rows[0].value)
					}
					got[w] = append(got[w], err)
				}
			}(w, ss)
		}
		wg.Wait()
		for w := range stmts {
			for i := range stmts[w] {
				if ge, oe := fmt.Sprint(got[w][i]), fmt.Sprint(want[w][i]); ge != oe {
					t.Fatalf("%s, inserter %d, statement %d (%s, %d rows): engine %q, oracle %q",
						name, w, i, stmts[w][i].via, len(stmts[w][i].rows), ge, oe)
				}
			}
		}
		if got, want := db.Metrics().Batches, int64(len(o.advanced)); got != want {
			t.Fatalf("%s: %d advances, oracle %d", name, got, want)
		}
		held := 0
		for ord, id := range ids {
			db.maint.Lock()
			present, v := db.present[ord], db.pending[ord]
			db.maint.Unlock()
			ov, ok := o.pending[id]
			if present != ok || present && math.Float64bits(v) != math.Float64bits(ov) {
				t.Fatalf("%s: base node %d holds (%v, %v), oracle (%v, %v)", name, id, v, present, ov, ok)
			}
			if present {
				held++
			}
		}
		if got := db.pendingTotal.Load(); got != int64(held) {
			t.Fatalf("%s: pending counter %d, %d values held", name, got, held)
		}
	}

	value := func(round, id int) float64 { return float64(round*1000+id) + 0.25 }
	for round := 0; round < rounds; round++ {
		// The last values of the batch are those of the lowest IDs, which
		// sort first in a statement; every inserter also keeps three of its own
		// back for the statement that runs into a duplicate.
		var last []baseRow
		own := make([][]baseRow, inserters)
		for i, id := range ids {
			if _, held := o.pending[id]; held {
				continue // arrived with the statement that completed the previous batch
			}
			r := baseRow{id, value(round, id)}
			if id < lastCut {
				last = append(last, r)
			} else {
				own[i%inserters] = append(own[i%inserters], r)
			}
		}
		fills := make([][]stmt, inserters)
		kept := make([][]baseRow, inserters)
		for w, rows := range own {
			kept[w], rows = rows[:3], rows[3:]
			third := len(rows) / 3
			fills[w] = []stmt{{rows[:third], "exec"}, {rows[third : 2*third], "batch"}}
			for _, r := range rows[2*third:] {
				fills[w] = append(fills[w], stmt{[]baseRow{r}, "base"})
			}
		}
		phase("fill", fills)

		// A kept-back row, a value another inserter filled in, the other
		// kept-back rows: in ID order some of the fresh rows come before
		// the duplicate, and none of them sticks. Then a plain duplicate.
		dups := make([][]stmt, inserters)
		for w := range dups {
			other := own[(w+1)%inserters]
			mixed := append(slices.Clone(kept[w]), other[len(other)-1])
			via := "exec"
			if w%2 == 1 {
				via = "batch"
			}
			dups[w] = []stmt{{mixed, via}, {[]baseRow{other[3]}, "base"}}
		}
		phase("duplicates", dups)

		rest := make([][]stmt, inserters)
		for w := range rest {
			var rows []baseRow
			for _, r := range kept[w] {
				if _, held := o.pending[r.id]; !held {
					rows = append(rows, r)
				}
			}
			if len(rows) > 0 {
				rest[w] = []stmt{{rows, "batch"}}
			}
		}
		phase("rest", rest)
		if len(o.pending) != len(ids)-len(last) {
			t.Fatalf("round %d: oracle holds %d values before the last statement, want all but the lowest IDs' %d", round, len(o.pending), len(last))
		}

		// The completing statement: the lowest IDs' values, then next-round
		// values for a few series of higher IDs, which the batch that is
		// complete by then refuses until it has been applied.
		closing := slices.Clone(last)
		for _, r := range own[round%inserters][:4] {
			closing = append(closing, baseRow{r.id, value(round+1, r.id)})
		}
		via := "exec"
		if round%2 == 1 {
			via = "batch"
		}
		phase("closing", [][]stmt{{{closing, via}}})
		if len(o.advanced) != round+1 || len(o.pending) != 4 {
			t.Fatalf("round %d: oracle at %d advances holding %d values, want %d and 4", round, len(o.advanced), len(o.pending), round+1)
		}
	}

	for k, batch := range o.advanced {
		for _, id := range ids {
			if got, want := g.NodeValues(id)[len0+k], batch[id]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("advance %d, base node %d: series holds %v, oracle's batch %v", k, id, got, want)
			}
		}
	}
}

// TestReplayRejectsForeignIDs: a replayed batch is advanced only when its IDs
// are exactly the base IDs — a WAL record a value short, one naming an
// aggregate, one skipping a base series, and a segment whose column is one
// value short are refused with the engine where the snapshot left it; the same record
// with the right IDs replays.
func TestReplayRejectsForeignIDs(t *testing.T) {
	base, snap, ids, baseGen := crashFixture(t)
	twin := buildTwin(t, snap, nil)
	fingerprint := graphFingerprint(twin.graph)
	entries := func(ids []int) []segment.Entry {
		out := make([]segment.Entry, len(ids))
		for i, id := range ids {
			out[i] = segment.Entry{ID: int64(id), Value: float64(40 + i)}
		}
		return out
	}
	swapped := func(i, id int) []int {
		out := slices.Clone(ids)
		out[i] = id
		slices.Sort(out)
		return out
	}
	aggregate := twin.graph.TopID
	beyond := twin.graph.NumNodes() // sorts last: the record skips ids[0] before it names the stranger
	for _, tc := range []struct {
		name, want string
		entries    []segment.Entry
	}{
		{"right IDs", "", entries(ids)},
		{"one value short", "needs a value for all 8 base series, got 7", entries(ids[1:])},
		{"an aggregate ID", fmt.Sprintf("%d is not a base node", aggregate), entries(swapped(len(ids)-1, aggregate))},
		{"a base series skipped", fmt.Sprintf("no value for base node %d", ids[0]), entries(swapped(0, beyond))},
	} {
		fs := base.Clone()
		wal, _, err := segment.OpenWAL(fs, crashDir, fingerprint, segment.SyncAlways, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := wal.Append(uint64(baseGen), tc.entries); err != nil {
			t.Fatal(err)
		}
		if err := wal.Close(); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDurable(DurableOptions{Dir: crashDir, FS: fs}, crashEngineOpts(), nil)
		switch {
		case tc.want == "" && (err != nil || d.Recovery.WALBatches != 1):
			t.Fatalf("%s: %v, recovery %+v", tc.name, err, d.Recovery)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Fatalf("%s: error %v, want one saying %q", tc.name, err, tc.want)
		}
	}

	// A column of the wrong width: a segment written for seven base series.
	series := make([][]float64, len(ids)-1)
	for i := range series {
		series[i] = []float64{42}
	}
	img, err := segment.EncodeSegment(segment.Header{Fingerprint: fingerprint, FromGen: uint64(baseGen), ToGen: uint64(baseGen) + 1}, series)
	if err != nil {
		t.Fatal(err)
	}
	fs := base.Clone()
	name := segmentFileName(uint64(baseGen), uint64(baseGen)+1)
	if err := segment.WriteFileSync(fs, crashDir, name, img); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(DurableOptions{Dir: crashDir, FS: fs}, crashEngineOpts(), nil); err == nil || !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "columns of 8 values") {
		t.Fatalf("a segment of 7-value columns: %v", err)
	}
}

// BenchmarkDurableTimePoint: one full time point of the 6 889-series cube
// through InsertBatch on a durable engine over MemFS — pending column, commit gate,
// WAL append, Graph.Advance over every materialized node; no compaction.
func BenchmarkDurableTimePoint(b *testing.B) {
	dur, ids := cubeDurable(b, 10_000)
	batches := make([]map[int]float64, 8)
	for k := range batches {
		batches[k] = timePoint(ids, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dur.DB().InsertBatch(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompact32: folding 32 generations of the 6 889-series cube into a
// segment over MemFS — the work that runs under the engine write lock every
// CompactEvery batches.
func BenchmarkCompact32(b *testing.B) {
	dur, ids := cubeDurable(b, 10_000)
	batches := make([]map[int]float64, 32)
	for k := range batches {
		batches[k] = timePoint(ids, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, batch := range batches {
			if err := dur.DB().InsertBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := dur.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}
