package f2db

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"cubefc/internal/core"
	"cubefc/internal/datasets"
	"cubefc/internal/segment"
)

// Gates of the durable write path (DESIGN.md §6, §8): a time
// point is one dense column from the pending batch through the WAL to the
// graph, and a compaction only seals the active WAL file.

// cubeDurable opens a durable engine over MemFS on a synthetic two-dimension
// cube of about the given node count, every node materialized, with an empty
// configuration: what is measured is the write path — pending column, commit gate,
// WAL, Graph.Advance, sealing — not model maintenance.
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

// TestCompactAllocs: sealing a WAL file of 32 generations allocates the same
// few objects for 676 base series as for 6 889 — the new file's name and
// what MemFS takes for it (8 in all) — because nothing is re-read or
// re-encoded: the sealed file is the segment. Re-encoding the span into a
// segment file took 25–26, and the scratch-and-copy encoder before it about
// seven per series. "The same" is to within the printers fmt's pool loses
// to a collection between two runs.
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
	if math.Abs(small-large) > 4 || large > 12 {
		t.Fatalf("a compaction allocates %v objects for 676 series and %v for 6 889; want equal within 4 and ≤ 12", small, large)
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

// TestReplayRejectsForeignIDs: a replayed batch is advanced only when its
// column holds one value per base series — the fingerprint pins which
// series each position is, so the width is all a record can get wrong. A
// log of columns a value short or a value long is refused, also when the
// snapshot already covers its batch, with the engine where the snapshot
// left it; a column of the right width replays.
func TestReplayRejectsForeignIDs(t *testing.T) {
	base, snap, ids, baseGen := crashFixture(t)
	twin := buildTwin(t, snap, nil)
	fingerprint := graphFingerprint(twin.graph)
	for _, tc := range []struct {
		name, want string
		gen        int
		width      int
	}{
		{"right width", "", baseGen, len(ids)},
		{"one value short", "needs a value for all 8 base series, got 7", baseGen, len(ids) - 1},
		{"one value long", "needs a value for all 8 base series, got 9", baseGen, len(ids) + 1},
		{"short and covered by the snapshot", "needs a value for all 8 base series, got 7", baseGen - 1, len(ids) - 1},
	} {
		fs := base.Clone()
		wal, _, err := segment.OpenWAL(fs, crashDir, fingerprint, segment.SyncAlways, nil)
		if err != nil {
			t.Fatal(err)
		}
		column := make([]float64, tc.width)
		for i := range column {
			column[i] = float64(40 + i)
		}
		if err := wal.AppendColumn(uint64(tc.gen), column); err != nil {
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

// BenchmarkCompact32: sealing a WAL file of 32 generations of the 6 889-series
// cube over MemFS — the work that runs under the maintenance lock every
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
