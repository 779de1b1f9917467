package f2db

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"cubefc/internal/segment"
)

// TestCheckpointBudget: with CheckpointEvery n the insert path checkpoints
// by itself, starting no goroutine: k·n batches make k snapshot writes, a
// power loss replays fewer than n batches, and after the restart the
// replayed batches count toward the next checkpoint.
func TestCheckpointBudget(t *testing.T) {
	base, _, ids, baseGen := crashFixture(t)
	const every, k = 3, 4
	batches := makeBatches(ids, (k+1)*every, 13)
	fs := base.Clone()
	open := func() *Durable {
		t.Helper()
		d, err := OpenDurable(DurableOptions{Dir: crashDir, FS: fs, CheckpointEvery: every}, crashEngineOpts(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	goroutines := runtime.NumGoroutine()
	d := open()
	for i, batch := range batches[:k*every+every-1] {
		if err := d.DB().InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		if got, want := d.DB().Metrics().SnapshotWrites, int64((i+1)/every); got != want {
			t.Fatalf("after %d batches: %d snapshot writes, want %d", i+1, got, want)
		}
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("%d goroutines after the checkpoints, %d before the engine opened", n, goroutines)
	}

	fs.Crash()
	d = open()
	defer d.Close()
	if rec := d.Recovery; rec.SnapshotGen != uint64(baseGen+k*every) || rec.WALBatches != every-1 {
		t.Fatalf("recovery after %d batches under budget %d: %+v", k*every+every-1, every, rec)
	}
	if err := d.DB().InsertBatch(batches[k*every+every-1]); err != nil {
		t.Fatal(err)
	}
	if n := d.DB().Metrics().SnapshotWrites; n != 1 {
		t.Fatalf("the batch completing the budget with %d replayed ones made %d snapshot writes, want 1", every-1, n)
	}
}

// TestCheckpointKeepsOldOnFailure: a checkpoint whose snapshot write fails
// leaves the previous snapshot intact, no tmp debris and the log unpruned,
// so a crash on top recovers everything committed.
func TestCheckpointKeepsOldOnFailure(t *testing.T) {
	base, snap, ids, _ := crashFixture(t)
	batches := makeBatches(ids, 3, 17)
	fs := base.Clone()
	d, err := OpenDurable(DurableOptions{Dir: crashDir, FS: fs}, crashEngineOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range batches {
		if err := d.DB().InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	before, err := fs.ReadDir(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	fs.SetWriteLimit(3)
	if err := d.Checkpoint(); !errors.Is(err, segment.ErrInjected) {
		t.Fatalf("faulted checkpoint: %v", err)
	}
	fs.SetWriteLimit(-1)
	if data, err := fs.ReadFile(crashDir + "/" + snapshotFileName); err != nil || !bytes.Equal(data, snap) {
		t.Fatalf("old snapshot damaged by the failed checkpoint: %v", err)
	}
	if after, err := fs.ReadDir(crashDir); err != nil || strings.Join(after, " ") != strings.Join(before, " ") {
		t.Fatalf("directory %v after the failed checkpoint, %v before (%v)", after, before, err)
	}
	fs.Crash()
	rec := reopenRecovered(t, fs, 0)
	defer rec.Close()
	if rec.Recovery.WALBatches != len(batches) {
		t.Fatalf("recovery after a failed checkpoint: %+v", rec.Recovery)
	}
	twin := buildTwin(t, snap, batches)
	if rd, td := stateDigest(t, rec.DB()), stateDigest(t, twin); rd != td {
		t.Fatalf("recovered state diverges from twin: %s", digestDiff(rd, td))
	}
}
