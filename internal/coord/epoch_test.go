package coord

import (
	"fmt"
	"testing"

	"cubefc/internal/f2db"
)

// TestPerPartitionEpochIsolation pins the write-epoch refinement: a
// single-partition INSERT bumps only its partition's epoch, so cached
// answers over the other partition keep serving hits, while answers over
// the written partition are invalidated. Multi-partition statements and
// batch completions fall back to the global epoch and invalidate
// everything.
func TestPerPartitionEpochIsolation(t *testing.T) {
	g, data := buildCube(t)
	s1 := startShardOn(t, data, "127.0.0.1:0")
	defer s1.stop(t)
	s2 := startShardOn(t, data, "127.0.0.1:0")
	defer s2.stop(t)

	planner := f2db.NewPlanner(g, 0)
	opts := testCoordOpts(t)
	opts.CacheSize = 64
	co, err := New(planner, []string{s1.addr, s2.addr}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	// Map every (product, city) pair to its write partition and pick one
	// base row per partition.
	type row struct{ p, c string }
	byPart := map[int]row{}
	for _, p := range []string{"P1", "P2"} {
		for _, c := range []string{"C1", "C2", "C3", "C4"} {
			part := -1
			_, err := planner.RouteExecNodes(
				fmt.Sprintf("INSERT INTO facts VALUES ('%s','%s',1)", p, c),
				func(id int) { part = ShardFor(id, 2) })
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := byPart[part]; !ok {
				byPart[part] = row{p, c}
			}
		}
	}
	if len(byPart) != 2 {
		t.Fatalf("cube maps to %d partitions, want 2", len(byPart))
	}
	rowA, rowB := byPart[0], byPart[1]
	qA := fmt.Sprintf("SELECT time, SUM(m) FROM facts WHERE product = '%s' AND city = '%s'", rowA.p, rowA.c)
	qB := fmt.Sprintf("SELECT time, SUM(m) FROM facts WHERE product = '%s' AND city = '%s'", rowB.p, rowB.c)

	// Fill and verify both cache entries.
	resA, err := co.Query(qA)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := co.Query(qB)
	if err != nil {
		t.Fatal(err)
	}
	hits0 := co.met.CacheHits.Load()
	if _, err := co.Query(qA); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Query(qB); err != nil {
		t.Fatal(err)
	}
	if got := co.met.CacheHits.Load() - hits0; got != 2 {
		t.Fatalf("warm cache hit %d times, want 2", got)
	}

	// A single-row INSERT into partition B: partition bump only, no batch
	// advance (1 of 8 rows pending).
	if err := co.Exec(fmt.Sprintf("INSERT INTO facts VALUES ('%s','%s',500)", rowB.p, rowB.c)); err != nil {
		t.Fatal(err)
	}
	if got := co.met.EpochPartBumps.Load(); got != 1 {
		t.Fatalf("partition bumps = %d, want 1", got)
	}
	if got := co.met.EpochGlobalBumps.Load(); got != 0 {
		t.Fatalf("global bumps = %d, want 0", got)
	}

	// Partition A's entry still serves hits; partition B's is invalidated
	// — but the refetched answer is unchanged, because a pending insert
	// changes no query result until the batch advances.
	hits1, inv1 := co.met.CacheHits.Load(), co.met.CacheInvalidations.Load()
	gotA, err := co.Query(qA)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "partition A after foreign insert", gotA, resA)
	if got := co.met.CacheHits.Load() - hits1; got != 1 {
		t.Fatalf("partition A entry hit %d times after a partition-B insert, want 1", got)
	}
	gotB, err := co.Query(qB)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "partition B pending insert", gotB, resB)
	if got := co.met.CacheInvalidations.Load() - inv1; got != 1 {
		t.Fatalf("invalidations = %d after a partition-B insert, want 1", got)
	}

	// The remaining 7 rows in one statement span both partitions and
	// complete the batch: global bump, everything invalidated.
	var rows []string
	for _, p := range []string{"P1", "P2"} {
		for _, c := range []string{"C1", "C2", "C3", "C4"} {
			if p == rowB.p && c == rowB.c {
				continue
			}
			rows = append(rows, fmt.Sprintf("('%s','%s',501)", p, c))
		}
	}
	ins := "INSERT INTO facts VALUES " + rows[0]
	for _, r := range rows[1:] {
		ins += ", " + r
	}
	if err := co.Exec(ins); err != nil {
		t.Fatal(err)
	}
	if got := co.met.EpochGlobalBumps.Load(); got != 1 {
		t.Fatalf("global bumps = %d after batch completion, want 1", got)
	}
	inv2, miss2 := co.met.CacheInvalidations.Load(), co.met.CacheMisses.Load()
	if _, err := co.Query(qA); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Query(qB); err != nil {
		t.Fatal(err)
	}
	if got := co.met.CacheInvalidations.Load() - inv2; got != 2 {
		t.Fatalf("invalidations = %d after global bump, want 2", got)
	}
	if got := co.met.CacheMisses.Load() - miss2; got != 2 {
		t.Fatalf("misses = %d after global bump, want 2", got)
	}
}
