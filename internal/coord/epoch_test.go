package coord

import (
	"fmt"
	"strings"
	"testing"

	"cubefc/internal/f2db"
)

// TestPerPartitionEpochIsolation pins that the read table has no
// per-partition isolation: every logged INSERT bumps the one write epoch,
// so a row written in one partition invalidates a cached answer over
// another. The sequence defeats any guess from row counts at which INSERT
// completes a batch: one row, its duplicate (rejected by every replica,
// yet rows), six more rows, a query of a partition-0 cell, then the eighth
// row, in partition 1, which completes the batch on the shards. The
// coordinator must then answer as the shards do.
func TestPerPartitionEpochIsolation(t *testing.T) {
	g, data := buildCube(t)
	s1 := startShardOn(t, data, "127.0.0.1:0")
	defer s1.stop(t)
	s2 := startShardOn(t, data, "127.0.0.1:0")
	defer s2.stop(t)

	opts := testCoordOpts(t)
	opts.CacheSize = 64
	co, err := New(f2db.NewPlanner(g, 0), []string{s1.addr, s2.addr}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	// The query reads a base cell of partition 0; the last row of the batch
	// is a base of partition 1, and the first row any other base.
	query, last := -1, -1
	for _, id := range g.BaseIDs {
		switch p := ShardFor(id, 2); {
		case p == 0 && query < 0:
			query = id
		case p == 1 && last < 0:
			last = id
		}
	}
	if query < 0 || last < 0 {
		t.Fatal("the cube's bases do not cover both partitions")
	}
	first := g.BaseIDs[0]
	if first == last {
		first = g.BaseIDs[1]
	}
	rowSQL := func(ids []int, v int) string {
		rows := make([]string, len(ids))
		for i, id := range ids {
			rows[i] = fmt.Sprintf("('%s', '%s', %d)", g.Node(id).Coord[0].Value, g.Node(id).Coord[1].Value, v+i)
		}
		return "INSERT INTO facts VALUES " + strings.Join(rows, ", ")
	}
	var six []int
	for _, id := range g.BaseIDs {
		if id != first && id != last {
			six = append(six, id)
		}
	}
	q := querySQLFor(g, query)

	bumps := co.met.EpochGlobalBumps.Load()
	exec := func(sql string, logged, rejected bool) {
		t.Helper()
		if err := co.Exec(sql); (err != nil) != rejected {
			t.Fatalf("%s: err = %v, want rejected %v", sql, err, rejected)
		}
		want := bumps
		if logged {
			want++
		}
		if bumps = co.met.EpochGlobalBumps.Load(); bumps != want {
			t.Fatalf("%s: %d epoch bumps, want %d", sql, bumps, want)
		}
	}
	ask := func() *f2db.Result {
		t.Helper()
		res, err := co.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	before := ask()
	hits := co.met.CacheHits.Load()
	sameResult(t, "warm hit", ask(), before)
	if co.met.CacheHits.Load() != hits+1 {
		t.Fatal("a repeated query missed the warm table")
	}

	// One row completes no batch: the answer is invalidated, and the
	// refetched one is unchanged, since a pending row changes no answer.
	exec(rowSQL([]int{first}, 500), true, false)
	inv := co.met.CacheInvalidations.Load()
	sameResult(t, "after a non-completing insert", ask(), before)
	if co.met.CacheInvalidations.Load() != inv+1 {
		t.Fatal("a logged insert did not invalidate the cached answer")
	}
	// Its duplicate is logged and rejected by every replica; a statement the
	// planner rejects is never logged and bumps nothing.
	exec(rowSQL([]int{first}, 501), true, true)
	exec("INSERT INTO facts VALUES ('P1', 'C9', 1)", false, true)
	exec(rowSQL(six, 600), true, false)
	sameResult(t, "seven of eight rows pending", ask(), before)

	// The eighth row completes the batch on the shards.
	exec(rowSQL([]int{last}, 700), true, false)
	waitFor(t, "both shards caught up", co.CaughtUp)
	for i, db := range []*f2db.DB{s1.db, s2.db} {
		want, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if want.Groups[0].Rows[0].T == before.Groups[0].Rows[0].T {
			t.Fatalf("shard %d did not advance time", i)
		}
		sameResult(t, fmt.Sprintf("coordinator vs shard %d after the batch", i), ask(), want)
	}
}
