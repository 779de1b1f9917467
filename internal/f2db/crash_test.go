package f2db

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"cubefc/internal/segment"
)

// Crash-injection harness for the durability layer. The pattern throughout:
// build one durable directory on a MemFS, Clone() it into as many crash
// points as needed, kill a faulted run at a chosen byte offset (process
// kill keeps the live filesystem, power loss collapses it to the durable
// image), reopen, and demand the recovered engine is bit-identical — series
// values, pending batch, model maintenance state, forecasts — to a twin
// that loaded the same snapshot and applied exactly the committed batches
// through the ordinary insert path.

// crashDir is the durable directory inside every test filesystem.
const crashDir = "db"

// crashEngineOpts pins the options every engine in this file opens with.
// Strategy Never keeps model re-fits out of the picture (a lazy re-fit
// triggered on one side but not the other would diverge states that are
// both individually correct).
func crashEngineOpts() Options { return Options{Strategy: Never{}} }

// crashFixture builds a MemFS holding a freshly initialized durable
// directory (advisor run + initial snapshot, WAL empty) and returns it with
// the snapshot bytes, the base IDs and the snapshot generation. Tests
// Clone() the filesystem per crash point, so the advisor runs once per
// test, not once per kill.
func crashFixture(t testing.TB) (base *segment.MemFS, snap []byte, ids []int, baseGen int) {
	t.Helper()
	base = segment.NewMemFS()
	d, err := OpenDurable(DurableOptions{Dir: crashDir, FS: base}, crashEngineOpts(), func() (*DB, error) {
		db, _, _ := testEngine(t, Never{})
		return db, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Recovery.FreshBuild {
		t.Fatalf("fresh dir reported recovery %+v", d.Recovery)
	}
	ids = d.DB().Graph().BaseIDs()
	baseGen = d.DB().Graph().Length()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err = base.ReadFile(crashDir + "/" + snapshotFileName)
	if err != nil {
		t.Fatalf("reading anchor snapshot: %v", err)
	}
	return base, snap, ids, baseGen
}

// makeBatches builds n deterministic complete batches over the base IDs.
func makeBatches(ids []int, n int, seed int64) []map[int]float64 {
	rng := rand.New(rand.NewSource(seed))
	batches := make([]map[int]float64, n)
	for k := range batches {
		b := make(map[int]float64, len(ids))
		for _, id := range ids {
			b[id] = 40 + 10*math.Sin(float64(k)) + rng.NormFloat64()
		}
		batches[k] = b
	}
	return batches
}

// runFaulted opens the durable directory, arms the write-fault budget and
// feeds batches until one fails to commit, returning how many committed.
// The engine is then abandoned without Close — that is the kill.
func runFaulted(t testing.TB, fs *segment.MemFS, batches []map[int]float64, killAt int64, compactEvery int) int {
	t.Helper()
	d, err := OpenDurable(DurableOptions{Dir: crashDir, FS: fs, CompactEvery: compactEvery}, crashEngineOpts(), nil)
	if err != nil {
		t.Fatalf("pre-kill open: %v", err)
	}
	fs.SetWriteLimit(killAt)
	committed := 0
	for _, batch := range batches {
		if err := d.DB().InsertBatch(batch); err != nil {
			break
		}
		committed++
	}
	return committed
}

// reopenRecovered disarms the write fault and runs recovery.
func reopenRecovered(t testing.TB, fs *segment.MemFS, compactEvery int) *Durable {
	t.Helper()
	fs.SetWriteLimit(-1)
	d, err := OpenDurable(DurableOptions{Dir: crashDir, FS: fs, CompactEvery: compactEvery}, crashEngineOpts(), nil)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	return d
}

// buildTwin loads the snapshot the recovered engine started from and
// applies the committed batches through the ordinary insert path — the
// uninterrupted run the recovered engine must be indistinguishable from.
func buildTwin(t testing.TB, snap []byte, batches []map[int]float64) *DB {
	t.Helper()
	db, err := LoadDatabase(bytes.NewReader(snap), crashEngineOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range batches {
		if err := db.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// stateDigest renders everything recovery promises to restore, with floats
// as exact bit patterns: generation and pending count, every node series,
// the pending batch values, per-model maintenance state, and derived
// forecasts at the top and at base corners.
func stateDigest(t testing.TB, db *DB) string {
	t.Helper()
	var b strings.Builder
	gv := db.Graph()
	fmt.Fprintf(&b, "len=%d pending=%d\n", gv.Length(), db.pendingTotal.Load())
	for id := 0; id < gv.NumNodes(); id++ {
		fmt.Fprintf(&b, "s %s", gv.NodeKey(id))
		for _, v := range gv.NodeValues(id) {
			fmt.Fprintf(&b, " %016x", math.Float64bits(v))
		}
		b.WriteByte('\n')
	}
	pend := make(map[int]float64)
	db.maint.Lock()
	for ord, id := range db.graph.BaseIDs {
		if db.present[ord] {
			pend[id] = db.pending[ord]
		}
	}
	db.maint.Unlock()
	pids := make([]int, 0, len(pend))
	for id := range pend {
		pids = append(pids, id)
	}
	sort.Ints(pids)
	for _, id := range pids {
		fmt.Fprintf(&b, "p %d %016x\n", id, math.Float64bits(pend[id]))
	}
	health := db.Health()
	keys := make([]string, 0, len(health))
	for k := range health {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h := health[k]
		fmt.Fprintf(&b, "h %s %s u=%d e=%016x inv=%v\n", k, h.Family, h.UpdatesSinceFit, math.Float64bits(h.RollingError), h.Invalid)
	}
	bids := gv.BaseIDs()
	for _, id := range []int{gv.TopID(), bids[0], bids[len(bids)-1]} {
		fc, err := db.ForecastNode(id, 3)
		if err != nil {
			fmt.Fprintf(&b, "f %d err=%v\n", id, err)
			continue
		}
		fmt.Fprintf(&b, "f %d", id)
		for _, v := range fc {
			fmt.Fprintf(&b, " %016x", math.Float64bits(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// digestDiff points at the first line two digests disagree on.
func digestDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  recovered: %s\n  twin:      %s", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// TestCrashRecoveryAtEveryRecordBoundary is the headline: a clean reference
// run maps the WAL byte stream, then the engine is killed at every record
// boundary, one byte either side of it, and at interior quartiles — each
// under both crash models (process kill: unsynced bytes survive in the page
// cache; power loss: they do not). Every recovered engine must match its
// uninterrupted twin bit for bit and keep accepting the batches the crash
// interrupted. The kill points must also cover every possible committed
// count, or the harness is not actually probing the interesting states.
func TestCrashRecoveryAtEveryRecordBoundary(t *testing.T) {
	base, snap, ids, baseGen := crashFixture(t)
	batches := makeBatches(ids, 6, 1)

	ref := base.Clone()
	if got := runFaulted(t, ref, batches, -1, 0); got != len(batches) {
		t.Fatalf("clean reference run committed %d of %d", got, len(batches))
	}
	walData, err := ref.ReadFile(crashDir + "/wal-00000001.log")
	if err != nil {
		t.Fatal(err)
	}
	bounds := segment.RecordBoundaries(walData)
	if len(bounds) != len(batches)+1 || bounds[len(bounds)-1] != int64(len(walData)) {
		t.Fatalf("reference WAL has boundaries %v for %d bytes", bounds, len(walData))
	}

	killSet := map[int64]bool{0: true}
	for _, bd := range bounds {
		for _, k := range []int64{bd - 1, bd, bd + 1} {
			if k >= 0 && k <= int64(len(walData)) {
				killSet[k] = true
			}
		}
	}
	for q := int64(1); q <= 3; q++ {
		killSet[int64(len(walData))*q/4] = true
	}
	kills := make([]int64, 0, len(killSet))
	for k := range killSet {
		kills = append(kills, k)
	}
	sort.Slice(kills, func(i, j int) bool { return kills[i] < kills[j] })

	outcomes := make(map[int]bool)
	for _, killAt := range kills {
		for _, powerLoss := range []bool{false, true} {
			killAt, powerLoss := killAt, powerLoss
			t.Run(fmt.Sprintf("kill=%d,power=%v", killAt, powerLoss), func(t *testing.T) {
				fs := base.Clone()
				committed := runFaulted(t, fs, batches, killAt, 0)
				outcomes[committed] = true
				if powerLoss {
					fs.Crash()
				}
				d := reopenRecovered(t, fs, 0)
				rec := d.Recovery
				if rec.SnapshotGen != uint64(baseGen) || rec.SegmentBatches != 0 || rec.WALBatches != committed {
					t.Fatalf("committed %d but recovery reports %+v", committed, rec)
				}
				if powerLoss && rec.TornBytes != 0 {
					// SyncAlways means durable content always ends on a record
					// boundary after power loss.
					t.Fatalf("power loss left a torn tail: %+v", rec)
				}
				if !powerLoss {
					// The torn tail is exactly the killed write's progress past
					// the last complete record.
					prev := int64(0)
					for _, bd := range bounds {
						if bd <= killAt {
							prev = bd
						}
					}
					want := killAt - prev
					if killAt >= int64(len(walData)) {
						want = 0
					}
					if rec.TornBytes != want {
						t.Fatalf("kill at %d (last boundary %d): torn %d bytes, want %d", killAt, prev, rec.TornBytes, want)
					}
				}
				if got, want := d.DB().Graph().Length(), baseGen+committed; got != want {
					t.Fatalf("recovered length %d, want %d", got, want)
				}
				if n := d.DB().Metrics().WALReplayedBatches; n != int64(committed) {
					t.Fatalf("WALReplayedBatches metric = %d, want %d", n, committed)
				}
				twin := buildTwin(t, snap, batches[:committed])
				if rd, td := stateDigest(t, d.DB()), stateDigest(t, twin); rd != td {
					t.Fatalf("recovered state diverges from twin: %s", digestDiff(rd, td))
				}
				// The crash must not cost availability: both sides accept the
				// batches the kill interrupted and stay in lockstep.
				for _, batch := range batches[committed:] {
					if err := d.DB().InsertBatch(batch); err != nil {
						t.Fatalf("recovered engine refused a batch: %v", err)
					}
					if err := twin.InsertBatch(batch); err != nil {
						t.Fatal(err)
					}
				}
				if rd, td := stateDigest(t, d.DB()), stateDigest(t, twin); rd != td {
					t.Fatalf("post-recovery inserts diverge: %s", digestDiff(rd, td))
				}
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	for want := 0; want <= len(batches); want++ {
		if !outcomes[want] {
			t.Errorf("no kill point produced %d committed batches; outcomes %v", want, outcomes)
		}
	}
}

// TestCrashRecoveryQuickProperty drives the same twin equivalence from
// testing/quick: random batch values, a random kill offset, either crash
// model, plus a half-filled batch on top — which the durability contract
// declares volatile, so the recovered engine must hold exactly the
// committed batches and nothing of the partial one, then complete the next
// batch in lockstep with the twin.
func TestCrashRecoveryQuickProperty(t *testing.T) {
	base, snap, ids, baseGen := crashFixture(t)

	ref := base.Clone()
	refBatches := makeBatches(ids, 3, 42)
	if got := runFaulted(t, ref, refBatches, -1, 0); got != len(refBatches) {
		t.Fatalf("clean reference run committed %d of %d", got, len(refBatches))
	}
	refWAL, err := ref.ReadFile(crashDir + "/wal-00000001.log")
	if err != nil {
		t.Fatal(err)
	}
	// Batch records have fixed size for a fixed ID set, so this length is
	// the same for every seed below; killSel ranges a quarter past it so
	// some runs are never killed at all.
	killSpan := int64(len(refWAL)) + int64(len(refWAL))/4

	property := func(seed uint16, killSel uint16, powerLoss bool) bool {
		batches := makeBatches(ids, 3, int64(seed)+100)
		killAt := int64(killSel) % (killSpan + 1)

		fs := base.Clone()
		d0, err := OpenDurable(DurableOptions{Dir: crashDir, FS: fs}, crashEngineOpts(), nil)
		if err != nil {
			t.Fatalf("pre-kill open: %v", err)
		}
		fs.SetWriteLimit(killAt)
		committed := 0
		for _, batch := range batches {
			if err := d0.DB().InsertBatch(batch); err != nil {
				break
			}
			committed++
		}
		// Half-fill the next batch; never completes, so it never commits.
		// Errors are expected when the kill already poisoned the engine
		// mid-batch (its pending column still holds the refused batch).
		for _, id := range ids[:len(ids)/2] {
			_ = d0.DB().InsertBase(id, 7)
		}
		if powerLoss {
			fs.Crash()
		}

		d := reopenRecovered(t, fs, 0)
		defer d.Close()
		if d.DB().pendingTotal.Load() != 0 {
			t.Logf("seed=%d kill=%d power=%v: partial batch survived recovery", seed, killAt, powerLoss)
			return false
		}
		if got, want := d.DB().Graph().Length(), baseGen+committed; got != want {
			t.Logf("seed=%d kill=%d power=%v: length %d, want %d", seed, killAt, powerLoss, got, want)
			return false
		}
		twin := buildTwin(t, snap, batches[:committed])
		next := makeBatches(ids, 1, int64(seed)+999)[0]
		if err := d.DB().InsertBatch(next); err != nil {
			t.Logf("seed=%d kill=%d power=%v: recovered engine refused next batch: %v", seed, killAt, powerLoss, err)
			return false
		}
		if err := twin.InsertBatch(next); err != nil {
			t.Fatal(err)
		}
		if rd, td := stateDigest(t, d.DB()), stateDigest(t, twin); rd != td {
			t.Logf("seed=%d kill=%d power=%v: %s", seed, killAt, powerLoss, digestDiff(rd, td))
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryWithCompaction sweeps kill offsets across a run that
// compacts the WAL into segments every two batches, so crashes
// land inside segment writes, WAL rotations and prunes — the windows where
// a span transiently exists in both artifacts (or, done wrong, in
// neither). Recovery must de-duplicate and still match the twin exactly.
func TestCrashRecoveryWithCompaction(t *testing.T) {
	base, snap, ids, baseGen := crashFixture(t)
	batches := makeBatches(ids, 6, 3)
	const compactEvery = 2

	// Clean run first: compaction must actually produce segments and prune
	// the log, or the sweep below exercises nothing.
	ref := base.Clone()
	d, err := OpenDurable(DurableOptions{Dir: crashDir, FS: ref, CompactEvery: compactEvery}, crashEngineOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range batches {
		if err := d.DB().InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	names, err := ref.ReadDir(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	segs, wals := 0, 0
	for _, name := range names {
		if _, _, ok := parseSegmentName(name); ok {
			segs++
		}
		if strings.HasPrefix(name, "wal-") {
			wals++
		}
	}
	if segs < 2 || wals != 1 {
		t.Fatalf("clean compacting run left %d segments, %d WAL files: %v", segs, wals, names)
	}
	m := d.DB().Metrics()
	if m.SegmentCompactions != int64(segs) {
		t.Fatalf("SegmentCompactions = %d, want %d", m.SegmentCompactions, segs)
	}
	// Budget ceiling for the sweep: everything a full run writes (WAL
	// appends + segment images), plus slack for file headers and seals.
	budgetMax := m.WALBytes + m.SegmentBytes + 512
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	for killAt := int64(0); killAt <= budgetMax; killAt += 61 {
		for _, powerLoss := range []bool{false, true} {
			killAt, powerLoss := killAt, powerLoss
			t.Run(fmt.Sprintf("kill=%d,power=%v", killAt, powerLoss), func(t *testing.T) {
				fs := base.Clone()
				committed := runFaulted(t, fs, batches, killAt, compactEvery)
				if powerLoss {
					fs.Crash()
				}
				d := reopenRecovered(t, fs, compactEvery)
				rec := d.Recovery
				if rec.SegmentBatches+rec.WALBatches != committed {
					t.Fatalf("committed %d but recovery replayed %+v", committed, rec)
				}
				if got, want := d.DB().Graph().Length(), baseGen+committed; got != want {
					t.Fatalf("recovered length %d, want %d", got, want)
				}
				twin := buildTwin(t, snap, batches[:committed])
				if rd, td := stateDigest(t, d.DB()), stateDigest(t, twin); rd != td {
					t.Fatalf("recovered state diverges from twin: %s", digestDiff(rd, td))
				}
				for _, batch := range batches[committed:] {
					if err := d.DB().InsertBatch(batch); err != nil {
						t.Fatalf("recovered engine refused a batch: %v", err)
					}
					if err := twin.InsertBatch(batch); err != nil {
						t.Fatal(err)
					}
				}
				if rd, td := stateDigest(t, d.DB()), stateDigest(t, twin); rd != td {
					t.Fatalf("post-recovery inserts diverge: %s", digestDiff(rd, td))
				}
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestDurableCheckpoint proves Checkpoint's contract: afterwards the
// directory holds exactly one snapshot (log and segments pruned), and a
// power loss replays only what came after it.
func TestDurableCheckpoint(t *testing.T) {
	base, _, ids, baseGen := crashFixture(t)
	batches := makeBatches(ids, 5, 11)

	fs := base.Clone()
	d, err := OpenDurable(DurableOptions{Dir: crashDir, FS: fs}, crashEngineOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range batches[:4] {
		if err := d.DB().InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Everything the snapshot supersedes is pruned: no segments, no old log
	// files — at most the freshly rotated (header-only) active log remains.
	names, err := fs.ReadDir(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	var wals []string
	for _, name := range names {
		if _, _, ok := parseSegmentName(name); ok {
			t.Fatalf("segment survived checkpoint: %v", names)
		}
		if strings.HasPrefix(name, "wal-") {
			wals = append(wals, name)
		}
	}
	if len(wals) > 1 || len(names) != len(wals)+1 {
		t.Fatalf("directory after checkpoint: %v", names)
	}
	if n := d.DB().Metrics().SnapshotWrites; n != 1 {
		t.Fatalf("SnapshotWrites = %d, want 1", n)
	}
	ckptSnap, err := fs.ReadFile(crashDir + "/" + snapshotFileName)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.DB().InsertBatch(batches[4]); err != nil {
		t.Fatal(err)
	}

	fs.Crash()
	d2 := reopenRecovered(t, fs, 0)
	rec := d2.Recovery
	if rec.SnapshotGen != uint64(baseGen+4) || rec.WALBatches != 1 || rec.SegmentBatches != 0 || rec.TornBytes != 0 {
		t.Fatalf("recovery after checkpoint: %+v", rec)
	}
	if got, want := d2.DB().Graph().Length(), baseGen+5; got != want {
		t.Fatalf("recovered length %d, want %d", got, want)
	}
	twin := buildTwin(t, ckptSnap, batches[4:])
	if rd, td := stateDigest(t, d2.DB()), stateDigest(t, twin); rd != td {
		t.Fatalf("recovered state diverges from checkpoint twin: %s", digestDiff(rd, td))
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveredWriteStateMatchesLive holds a crash-recovered engine to the
// live engine it replaces on the write state beside the series: the insert
// and batch counters (a coordinator realigns a restarted shard by the insert
// count) and the pending column. One crash follows whole batches; the other
// follows a batch that a checkpoint cut in half and that then completed, so
// recovery loads its first half as pending and replays the whole batch.
// The digest is compared with a twin that loaded the same snapshot and took
// the same inserts; the counters are compared with the live engine itself.
func TestRecoveredWriteStateMatchesLive(t *testing.T) {
	base, _, ids, _ := crashFixture(t)
	batches := makeBatches(ids, 5, 21)
	for _, midBatch := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpointMidBatch=%v", midBatch), func(t *testing.T) {
			fs := base.Clone()
			live, err := OpenDurable(DurableOptions{Dir: crashDir, FS: fs}, crashEngineOpts(), nil)
			if err != nil {
				t.Fatal(err)
			}
			// sinceSnap is what the live engine took after the snapshot that
			// recovery will start from.
			sinceSnap := batches[:3]
			for _, batch := range sinceSnap {
				if err := live.DB().InsertBatch(batch); err != nil {
					t.Fatal(err)
				}
			}
			if midBatch {
				first, rest := make(map[int]float64), make(map[int]float64)
				for i, id := range ids {
					if i < len(ids)/2 {
						first[id] = batches[3][id]
					} else {
						rest[id] = batches[3][id]
					}
				}
				if err := live.DB().InsertBatch(first); err != nil {
					t.Fatal(err)
				}
				if err := live.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if err := live.DB().InsertBatch(rest); err != nil {
					t.Fatal(err)
				}
				sinceSnap = []map[int]float64{rest}
			}
			snap, err := fs.ReadFile(crashDir + "/" + snapshotFileName)
			if err != nil {
				t.Fatal(err)
			}
			fs.Crash()
			rec := reopenRecovered(t, fs, 0)
			defer rec.Close()
			twin := buildTwin(t, snap, sinceSnap)

			same := func(when string) {
				t.Helper()
				if rd, td := stateDigest(t, rec.DB()), stateDigest(t, twin); rd != td {
					t.Fatalf("%s: recovered state diverges from twin: %s", when, digestDiff(rd, td))
				}
				rs, ls := rec.DB().Stats(), live.DB().Stats()
				if rs.Inserts != ls.Inserts || rs.Batches != ls.Batches {
					t.Fatalf("%s: recovered inserts=%d batches=%d, live inserts=%d batches=%d",
						when, rs.Inserts, rs.Batches, ls.Inserts, ls.Batches)
				}
			}
			same("after recovery")
			for _, db := range []*DB{rec.DB(), live.DB(), twin} {
				if err := db.InsertBatch(batches[4]); err != nil {
					t.Fatalf("next batch refused: %v", err)
				}
			}
			same("after the next batch")
		})
	}
}

// TestDurableConcurrentInserts hammers a durable engine from parallel
// inserters with a concurrent forecast reader — the group-commit gate runs
// under the maintenance lock inside the advance, and this (under -race)
// is the proof the WAL hook does not break the write path's
// synchronization. The run then survives a process kill bit-identically.
func TestDurableConcurrentInserts(t *testing.T) {
	base, snap, ids, baseGen := crashFixture(t)

	fs := base.Clone()
	d, err := OpenDurable(DurableOptions{Dir: crashDir, FS: fs}, crashEngineOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	db := d.DB()
	top := db.Graph().TopID()

	const rounds = 10
	const workers = 4
	val := func(round, id int) float64 { return 50 + float64(id%7) + 0.25*float64(round) }

	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
				if _, err := db.ForecastNode(top, 2); err != nil {
					t.Errorf("concurrent forecast: %v", err)
					return
				}
				_ = db.Health()
			}
		}
	}()

	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			group := ids[w*len(ids)/workers : (w+1)*len(ids)/workers]
			wg.Add(1)
			go func(group []int, round int) {
				defer wg.Done()
				for _, id := range group {
					if err := db.InsertBase(id, val(round, id)); err != nil {
						t.Errorf("concurrent insert %d: %v", id, err)
					}
				}
			}(group, round)
		}
		wg.Wait()
	}
	close(done)
	readers.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got, want := db.Graph().Length(), baseGen+rounds; got != want {
		t.Fatalf("length after concurrent rounds %d, want %d", got, want)
	}

	// Kill without Close, reopen, and compare against a twin fed the same
	// rounds as sequential batches.
	d2 := reopenRecovered(t, fs, 0)
	if rec := d2.Recovery; rec.WALBatches != rounds {
		t.Fatalf("recovery after concurrent run: %+v", rec)
	}
	roundBatches := make([]map[int]float64, rounds)
	for round := range roundBatches {
		b := make(map[int]float64, len(ids))
		for _, id := range ids {
			b[id] = val(round, id)
		}
		roundBatches[round] = b
	}
	twin := buildTwin(t, snap, roundBatches)
	if rd, td := stateDigest(t, d2.DB()), stateDigest(t, twin); rd != td {
		t.Fatalf("recovered concurrent run diverges from twin: %s", digestDiff(rd, td))
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
}

// syncProbeFS is a MemFS whose files try the engine's shared lock at every
// fsync once db is set: a probe that cannot take it found the write lock
// held, so a reader would have waited out that fsync.
type syncProbeFS struct {
	*segment.MemFS
	db             *DB
	syncs, blocked int
}

func (p *syncProbeFS) Create(name string) (segment.File, error) {
	f, err := p.MemFS.Create(name)
	return probeFile{f, p}, err
}

func (p *syncProbeFS) Append(name string) (segment.File, error) {
	f, err := p.MemFS.Append(name)
	return probeFile{f, p}, err
}

type probeFile struct {
	segment.File
	p *syncProbeFS
}

func (f probeFile) Sync() error {
	if db := f.p.db; db != nil {
		f.p.syncs++
		if db.mu.TryRLock() {
			db.mu.RUnlock()
		} else {
			f.p.blocked++
		}
	}
	return f.File.Sync()
}

// TestFsyncAdmitsReaders: no fsync — of a WAL append, a compaction or a
// checkpoint — holds the engine's exclusive lock, so readers keep
// answering while it runs.
func TestFsyncAdmitsReaders(t *testing.T) {
	base, _, ids, _ := crashFixture(t)
	fs := &syncProbeFS{MemFS: base.Clone()}
	d, err := OpenDurable(DurableOptions{Dir: crashDir, FS: fs, CompactEvery: 3}, crashEngineOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fs.db = d.DB()
	for _, batch := range makeBatches(ids, 8, 3) {
		if err := d.DB().InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if fs.syncs == 0 {
		t.Fatal("the probe saw no fsync")
	}
	if fs.blocked != 0 {
		t.Fatalf("%d of %d fsyncs held the engine's write lock", fs.blocked, fs.syncs)
	}
	t.Logf("%d fsyncs, none under the write lock", fs.syncs)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableRejectsForeignSegment plants a well-formed segment carrying
// another database's fingerprint; recovery must refuse it rather than
// replay foreign batches into the wrong series.
func TestDurableRejectsForeignSegment(t *testing.T) {
	base, _, ids, baseGen := crashFixture(t)
	series := make([][]float64, len(ids))
	for i := range series {
		series[i] = []float64{42}
	}
	img, err := segment.EncodeSegment(segment.Header{
		Fingerprint: 0xBADBADBADBAD,
		FromGen:     uint64(baseGen),
		ToGen:       uint64(baseGen) + 1,
	}, series)
	if err != nil {
		t.Fatal(err)
	}
	fs := base.Clone()
	if err := segment.WriteFileSync(fs, crashDir, segmentFileName(uint64(baseGen), uint64(baseGen)+1), img); err != nil {
		t.Fatal(err)
	}
	_, err = OpenDurable(DurableOptions{Dir: crashDir, FS: fs}, crashEngineOpts(), nil)
	if err == nil || !strings.Contains(err.Error(), "belongs to another database") {
		t.Fatalf("foreign segment: %v", err)
	}
}

// TestDurableRefusesOldFormatSegment plants a segment of the previous,
// per-series format (testdata/old-format.seg: generations [baseGen,
// baseGen+2) of this very database, keys, footer index and all); recovery
// must refuse it by name rather than read it.
func TestDurableRefusesOldFormatSegment(t *testing.T) {
	base, _, _, baseGen := crashFixture(t)
	img, err := os.ReadFile("testdata/old-format.seg")
	if err != nil {
		t.Fatal(err)
	}
	fs := base.Clone()
	name := segmentFileName(uint64(baseGen), uint64(baseGen)+2)
	if err := segment.WriteFileSync(fs, crashDir, name, img); err != nil {
		t.Fatal(err)
	}
	_, err = OpenDurable(DurableOptions{Dir: crashDir, FS: fs}, crashEngineOpts(), nil)
	if err == nil || !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), `"F2SEG001"`) {
		t.Fatalf("old-format segment: %v", err)
	}
}

// TestWriteSnapshotFileSurvivesCrash is the regression test for the
// snapshot-save bug: tmp + rename without fsyncing the file and its parent
// directory left a window where a crash lost the "saved" snapshot. The
// helper must make the image durable before reporting success.
func TestWriteSnapshotFileSurvivesCrash(t *testing.T) {
	db, _, _ := testEngine(t, Never{})
	fs := segment.NewMemFS()
	if err := fs.MkdirAll("out"); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshotFile(fs, "out/snap.db", db); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	data, err := fs.ReadFile("out/snap.db")
	if err != nil {
		t.Fatalf("snapshot lost to crash right after save: %v", err)
	}
	loaded, err := LoadDatabase(bytes.NewReader(data), crashEngineOpts())
	if err != nil {
		t.Fatalf("post-crash snapshot unreadable: %v", err)
	}
	if got, want := loaded.Graph().Length(), db.Graph().Length(); got != want {
		t.Fatalf("post-crash snapshot length %d, want %d", got, want)
	}
}

// TestWriteSnapshotFileKeepsOldOnFailure: a failed re-save must leave the
// previous snapshot intact and loadable, with no tmp debris, even across a
// crash.
func TestWriteSnapshotFileKeepsOldOnFailure(t *testing.T) {
	db, _, _ := testEngine(t, Never{})
	fs := segment.NewMemFS()
	if err := fs.MkdirAll("out"); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshotFile(fs, "out/snap.db", db); err != nil {
		t.Fatal(err)
	}
	old, err := fs.ReadFile("out/snap.db")
	if err != nil {
		t.Fatal(err)
	}
	fs.SetWriteLimit(3)
	if err := WriteSnapshotFile(fs, "out/snap.db", db); !errors.Is(err, segment.ErrInjected) {
		t.Fatalf("faulted save: %v", err)
	}
	fs.SetWriteLimit(-1)
	if data, err := fs.ReadFile("out/snap.db"); err != nil || !bytes.Equal(data, old) {
		t.Fatalf("old snapshot damaged by failed save: %v", err)
	}
	names, err := fs.ReadDir("out")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "snap.db" {
		t.Fatalf("debris after failed save: %v", names)
	}
	fs.Crash()
	data, err := fs.ReadFile("out/snap.db")
	if err != nil || !bytes.Equal(data, old) {
		t.Fatalf("old snapshot not crash-durable after failed save: %v", err)
	}
	if _, err := LoadDatabase(bytes.NewReader(data), crashEngineOpts()); err != nil {
		t.Fatalf("old snapshot unreadable after failed save: %v", err)
	}
}

// TestLoadDatabaseTruncatedPrefixes feeds every strict prefix of a valid
// snapshot image to LoadDatabase: each must fail with a clean error — no
// panic, no partially constructed engine reported as success.
func TestLoadDatabaseTruncatedPrefixes(t *testing.T) {
	db, _, _ := testEngine(t, Never{})
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, db); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	t.Logf("snapshot image: %d bytes", len(img))
	for cut := 0; cut < len(img); cut++ {
		if _, err := LoadDatabase(bytes.NewReader(img[:cut]), crashEngineOpts()); err == nil {
			t.Fatalf("prefix %d of %d bytes loaded without error", cut, len(img))
		}
	}
	full, err := LoadDatabase(bytes.NewReader(img), crashEngineOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := full.Graph().Length(), db.Graph().Length(); got != want {
		t.Fatalf("full image loaded length %d, want %d", got, want)
	}
}
