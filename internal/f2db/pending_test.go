package f2db

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// Tests for the pending column and its one lock (DESIGN.md §6). The twin
// tests run an engine under concurrent writers and readers and demand
// results byte-identical to the same engine fed sequentially. The Stripe
// names date from the write stripes the lock replaced. All of them are part
// of the CI race-stress suite:
//
//	go test -race -run 'Stripe|Pending|Concurrency' -count=3 ./internal/f2db/

// concurrentTwins clones one engine into two instances, one to be fed by
// concurrent writers and a sequential reference. Both use the Never
// invalidation strategy: lazy re-estimation is triggered by query timing,
// so any time-based strategy would make concurrent runs nondeterministic by
// design; with Never the two engines must match bit for bit.
func concurrentTwins(t *testing.T) (conc, seq *DB) {
	t.Helper()
	src, _, _ := testEngine(t, nil)
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, src); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	conc, err := LoadDatabase(bytes.NewReader(data), Options{Strategy: Never{}})
	if err != nil {
		t.Fatal(err)
	}
	seq, err = LoadDatabase(bytes.NewReader(data), Options{Strategy: Never{}})
	if err != nil {
		t.Fatal(err)
	}
	return conc, seq
}

// splitRoundRobin deals a batch's values over n sub-batches in ascending
// ID order, so every sub-batch spans the whole column.
func splitRoundRobin(batch map[int]float64, n int) []map[int]float64 {
	ids := make([]int, 0, len(batch))
	for id := range batch {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ { // insertion sort; tiny n
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	parts := make([]map[int]float64, n)
	for i := range parts {
		parts[i] = make(map[int]float64)
	}
	for i, id := range ids {
		parts[i%n][id] = batch[id]
	}
	return parts
}

// TestStripeTwinEngines is the central write-path correctness check: an
// engine fed by 8 concurrent writers with 4 concurrent readers in flight
// must end every round in exactly the state its twin reaches applying the
// same batches sequentially — byte-identical
// forecasts for every node and horizon, and identical Stats counters.
func TestStripeTwinEngines(t *testing.T) {
	const (
		rounds           = 5
		writers          = 8
		readers          = 4
		queriesPerReader = 25
	)
	conc, seq := concurrentTwins(t)
	numNodes := conc.Graph().NumNodes()

	for round := 0; round < rounds; round++ {
		batch := fullBatch(conc, round)
		parts := splitRoundRobin(batch, writers)

		errs := make([]error, writers+readers)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				errs[w] = conc.InsertBatch(parts[w])
			}(w)
		}
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for j := 0; j < queriesPerReader; j++ {
					node := (r*31 + j*7) % numNodes
					if _, err := conc.ForecastNode(node, 1+j%3); err != nil {
						errs[writers+r] = err
						return
					}
				}
			}(r)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}

		// Sequential reference: same batch, then the same query count
		// (readers change no model state under Never, only counters).
		if err := seq.InsertBatch(batch); err != nil {
			t.Fatalf("round %d: reference: %v", round, err)
		}
		for r := 0; r < readers; r++ {
			for j := 0; j < queriesPerReader; j++ {
				node := (r*31 + j*7) % numNodes
				if _, err := seq.ForecastNode(node, 1+j%3); err != nil {
					t.Fatalf("round %d: reference query: %v", round, err)
				}
			}
		}
	}

	sp, sq := conc.Stats(), seq.Stats()
	if sp.Queries != sq.Queries || sp.Inserts != sq.Inserts ||
		sp.Batches != sq.Batches || sp.Reestimations != sq.Reestimations ||
		sp.PendingInserts != sq.PendingInserts {
		t.Fatalf("stats diverged:\nconcurrent: %+v\nsequential: %+v", sp, sq)
	}
	for node := 0; node < numNodes; node++ {
		for h := 1; h <= 3; h++ {
			a, err := conc.ForecastNode(node, h)
			if err != nil {
				t.Fatal(err)
			}
			b, err := seq.ForecastNode(node, h)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("node %d h=%d: len %d != %d", node, h, len(a), len(b))
			}
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("node %d h=%d step %d: %v != %v (not byte-identical)",
						node, h, i, a[i], b[i])
				}
			}
		}
	}
}

// TestStripeInsertBaseConcurrent free-runs one InsertBase producer per base
// series with no cross-producer synchronization: a producer that laps the
// batch gets a duplicate error and must retry until the slower producers
// complete the advance. This hammers the frozen-batch rule that tells a
// genuine duplicate from a complete batch awaiting its advance.
func TestStripeInsertBaseConcurrent(t *testing.T) {
	const rounds = 20
	conc, seq := concurrentTwins(t)
	ids := conc.Graph().BaseIDs()

	var wg sync.WaitGroup
	errs := make([]error, len(ids))
	for w, id := range ids {
		wg.Add(1)
		go func(w, id int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				v := 40 + float64(r)*3 + float64(w)*0.25
				for {
					err := conc.InsertBase(id, v)
					if err == nil {
						break
					}
					if !strings.Contains(err.Error(), "duplicate") {
						errs[w] = err
						return
					}
					// Lapped the batch: wait for the advance.
					runtime.Gosched()
				}
			}
		}(w, id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	for r := 0; r < rounds; r++ {
		batch := make(map[int]float64, len(ids))
		for w, id := range ids {
			batch[id] = 40 + float64(r)*3 + float64(w)*0.25
		}
		if err := seq.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
	}

	if got, want := conc.Stats().Batches, rounds; got != want {
		t.Fatalf("batches = %d, want %d", got, want)
	}
	if p := conc.Stats().PendingInserts; p != 0 {
		t.Fatalf("pending = %d after complete rounds", p)
	}
	for _, id := range ids {
		a, err := conc.ForecastNode(id, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := seq.ForecastNode(id, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("node %d: %v != %v", id, a[i], b[i])
			}
		}
	}
}

// TestStripeAdvanceInsertRace hammers the one window the other harnesses
// barely reach: inserts landing while an advance is in flight. Writers are
// partitioned over the base series and free-run through many consecutive
// batches with no barrier per advance, so a fast writer's next-batch value
// routinely meets the complete batch before it is applied. A lost
// pendingTotal update in that window wedges the engine — the
// completion check never fires again and every insert reports a spurious
// duplicate — so each writer gives up after a deadline instead of retrying
// forever, turning the wedge into a test failure rather than a hang.
func TestStripeAdvanceInsertRace(t *testing.T) {
	const (
		rounds  = 300
		writers = 4
	)
	conc, _ := concurrentTwins(t)
	ids := conc.Graph().BaseIDs()
	len0 := conc.Graph().Length()

	var wedged atomic.Bool
	timer := time.AfterFunc(time.Minute, func() { wedged.Store(true) })
	defer timer.Stop()

	errs := make([]error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		var own []int
		for i, id := range ids {
			if i%writers == w {
				own = append(own, id)
			}
		}
		wg.Add(1)
		go func(w int, own []int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, id := range own {
					v := 20 + float64(r)*2 + float64(id)*0.125
					for {
						err := conc.InsertBase(id, v)
						if err == nil {
							break
						}
						if !strings.Contains(err.Error(), "duplicate") {
							errs[w] = err
							return
						}
						if wedged.Load() {
							errs[w] = fmt.Errorf("writer %d wedged retrying node %d in round %d: advance never applied", w, id, r)
							return
						}
						runtime.Gosched()
					}
				}
			}
		}(w, own)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if got, want := conc.Stats().Batches, rounds; got != want {
		t.Fatalf("batches = %d, want %d", got, want)
	}
	if got, want := conc.Graph().Length(), len0+rounds; got != want {
		t.Fatalf("length = %d, want %d", got, want)
	}
	if p := conc.Stats().PendingInserts; p != 0 {
		t.Fatalf("pending = %d after %d complete rounds", p, rounds)
	}
}

// TestStripeAdvanceQuickProperty drives random InsertBatch interleavings
// with testing/quick and checks the two advance invariants: time never
// moves until a value has arrived for every base series, and when it does
// move, the generation is bumped exactly once.
func TestStripeAdvanceQuickProperty(t *testing.T) {
	src, _, _ := testEngine(t, nil)
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, src); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	prop := func(seed int64) bool {
		db, err := LoadDatabase(bytes.NewReader(data), Options{Strategy: Never{}})
		if err != nil {
			t.Error(err)
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		ids := append([]int(nil), db.Graph().BaseIDs()...)
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })

		// Cut the shuffled IDs into 1..len random contiguous parts: one
		// random interleaving of partial batches.
		var parts [][]int
		for len(ids) > 0 {
			n := 1 + rng.Intn(len(ids))
			parts = append(parts, ids[:n])
			ids = ids[n:]
		}

		gen0 := db.gen.Load()
		len0 := db.Graph().Length()

		for pi, part := range parts {
			batch := make(map[int]float64, len(part))
			for _, id := range part {
				batch[id] = 30 + 50*rng.Float64()
			}
			if err := db.InsertBatch(batch); err != nil {
				t.Errorf("part %d: %v", pi, err)
				return false
			}
			last := pi == len(parts)-1
			if !last {
				if got := db.Graph().Length(); got != len0 {
					t.Errorf("time advanced after partial batch: length %d != %d", got, len0)
					return false
				}
				if b := db.Stats().Batches; b != 0 {
					t.Errorf("batch advanced early: batches = %d", b)
					return false
				}
				if gen := db.gen.Load(); gen != gen0 {
					t.Errorf("generation bumped before advance: %d -> %d", gen0, gen)
					return false
				}
			}
		}

		if got := db.Graph().Length(); got != len0+1 {
			t.Errorf("length %d after complete batch, want %d", got, len0+1)
			return false
		}
		if b := db.Stats().Batches; b != 1 {
			t.Errorf("batches = %d, want 1", b)
			return false
		}
		if p := db.Stats().PendingInserts; p != 0 {
			t.Errorf("pending = %d after advance", p)
			return false
		}
		if gen := db.gen.Load(); gen != gen0+1 {
			t.Errorf("generation %d, want %d (exactly one bump per advance)", gen, gen0+1)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestStripeDuplicateSemantics: a value for a base series already pending
// in the current batch is an error on both write paths, exactly as with
// the single pending map, and does not disturb the pending count.
func TestStripeDuplicateSemantics(t *testing.T) {
	db, _, _ := testEngine(t, nil)
	ids := db.Graph().BaseIDs()

	if err := db.InsertBase(ids[0], 50); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertBase(ids[0], 51); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate InsertBase: err = %v", err)
	}
	if err := db.InsertBatch(map[int]float64{ids[0]: 52, ids[1]: 53}); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate InsertBatch: err = %v", err)
	}
	// Values applied before the duplicate stay pending (documented
	// InsertBatch semantics), so finish the batch per value, tolerating
	// duplicates for those already landed.
	for _, id := range ids[1:] {
		if err := db.InsertBase(id, 54); err != nil && !strings.Contains(err.Error(), "duplicate") {
			t.Fatal(err)
		}
	}
	if got := db.Stats().Batches; got != 1 {
		t.Fatalf("batches = %d, want 1", got)
	}
	if p := db.Stats().PendingInserts; p != 0 {
		t.Fatalf("pending = %d, want 0", p)
	}
}

// TestStripeSnapshotMidBatch: a snapshot taken with a half-filled batch
// restores its pending values, and the restored batch completes.
func TestStripeSnapshotMidBatch(t *testing.T) {
	src, _, _ := testEngine(t, nil)
	ids := src.Graph().BaseIDs()
	for _, id := range ids[:3] {
		if err := src.InsertBase(id, 61); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, src); err != nil {
		t.Fatal(err)
	}
	db, err := LoadDatabase(bytes.NewReader(buf.Bytes()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p := db.Stats().PendingInserts; p != 3 {
		t.Fatalf("pending = %d after restore, want 3", p)
	}
	rest := make(map[int]float64)
	for _, id := range ids[3:] {
		rest[id] = 62
	}
	wantLen := db.Graph().Length() + 1
	if err := db.InsertBatch(rest); err != nil {
		t.Fatal(err)
	}
	if got := db.Graph().Length(); got != wantLen {
		t.Fatalf("length %d, want %d", got, wantLen)
	}
}

// TestPendingSnapshotAtomic: SaveDatabase racing multi-row INSERTs that do
// not complete a batch holds each statement's rows all or none — a
// statement and a snapshot each hold the maintenance lock. Each round four
// writers send disjoint 8-row statements covering all but the last 8 base
// series, each waiting for the next snapshot before its next statement so
// that every snapshot races statements in flight; then the rest completes
// the batch.
func TestPendingSnapshotAtomic(t *testing.T) {
	const writers, perStmt, rounds = 4, 8, 6
	db, g := gridEngine(t, [2]string{"product", "city"}, numbered("P", 16), numbered("C", 16), Options{})
	ids := g.BaseIDs
	open := ids[:len(ids)-perStmt]
	var stmts [][]int
	for lo := 0; lo < len(open); lo += perStmt {
		stmts = append(stmts, open[lo:lo+perStmt])
	}
	for round := 0; round < rounds; round++ {
		var snaps atomic.Int64
		var wg sync.WaitGroup
		errs := make([]error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(stmts); i += writers {
					seen := snaps.Load()
					if err := db.Exec(insertSQL(g, stmts[i], float64(round*1000+i))); err != nil {
						errs[w] = err
						return
					}
					for snaps.Load() == seen {
						runtime.Gosched()
					}
				}
			}(w)
		}
		stop := make(chan struct{})
		go func() { wg.Wait(); close(stop) }()
		for done := false; !done; snaps.Add(1) {
			select {
			case <-stop:
				done = true // one last snapshot after the writers finished
			default:
			}
			var buf bytes.Buffer
			if err := SaveDatabase(&buf, db); err != nil {
				t.Fatal(err)
			}
			img, err := LoadDatabase(&buf, Options{})
			if err != nil {
				t.Fatal(err)
			}
			pending := make(map[string]bool)
			for ord, id := range img.graph.BaseIDs {
				if img.present[ord] {
					pending[img.graph.KeyOf(id)] = true
				}
			}
			for i, stmt := range stmts {
				held := 0
				for _, id := range stmt {
					if pending[g.KeyOf(id)] {
						held++
					}
				}
				if held != 0 && held != len(stmt) {
					t.Fatalf("round %d, snapshot %d: statement %d has %d of its %d rows pending", round, snaps.Load(), i, held, len(stmt))
				}
			}
		}
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Exec(insertSQL(g, ids[len(open):], float64(round))); err != nil {
			t.Fatal(err)
		}
		if got := db.Stats().Batches; got != round+1 {
			t.Fatalf("round %d: %d batches, want %d", round, got, round+1)
		}
	}
}
