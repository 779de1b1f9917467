package f2db

import (
	"testing"
	"time"

	"cubefc/internal/segment"
)

// The background checkpoint scheduler, driven by a fake clock: no sleeps.

func TestCheckpointSchedulerFakeClock(t *testing.T) {
	fs := segment.NewMemFS()
	d, err := OpenDurable(DurableOptions{Dir: "db", FS: fs}, crashEngineOpts(), func() (*DB, error) {
		db, _, _ := testEngine(t, Never{})
		return db, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	db := d.DB()
	s := NewCheckpointScheduler(d, CheckpointPolicy{Every: time.Minute, EveryBatches: 3}, t.Logf)
	now := time.Unix(1000, 0)

	// First tick only establishes the time baseline.
	if ran, _ := s.Tick(now); ran {
		t.Fatal("checkpoint ran with no batches and no baseline")
	}
	// An idle engine is never re-snapshotted, however much time passes.
	if ran, _ := s.Tick(now.Add(10 * time.Minute)); ran {
		t.Fatal("checkpoint ran on an idle engine")
	}
	// Three applied batches trip the batch trigger regardless of time.
	for i := 0; i < 3; i++ {
		if err := db.InsertBatch(fullBatch(db, i)); err != nil {
			t.Fatal(err)
		}
	}
	snaps := db.Metrics().SnapshotWrites
	ran, err := s.Tick(now.Add(10*time.Minute + time.Second))
	if err != nil || !ran {
		t.Fatalf("batch trigger: ran=%v err=%v", ran, err)
	}
	if got := db.Metrics().SnapshotWrites; got != snaps+1 {
		t.Fatalf("snapshot writes %d, want %d", got, snaps+1)
	}
	// Baselines advanced: immediately due again only after new batches.
	if ran, _ := s.Tick(now.Add(10*time.Minute + 2*time.Second)); ran {
		t.Fatal("checkpoint re-ran with no new batches")
	}
	// One new batch + elapsed Every trips the time trigger.
	if err := db.InsertBatch(fullBatch(db, 9)); err != nil {
		t.Fatal(err)
	}
	base := now.Add(10*time.Minute + time.Second)
	if ran, _ := s.Tick(base.Add(30 * time.Second)); ran {
		t.Fatal("time trigger fired before Every elapsed")
	}
	ran, err = s.Tick(base.Add(2 * time.Minute))
	if err != nil || !ran {
		t.Fatalf("time trigger: ran=%v err=%v", ran, err)
	}

	// Start is a no-op under a zero policy; Stop without Start is safe.
	z := NewCheckpointScheduler(d, CheckpointPolicy{}, nil)
	z.Start()
	z.Stop()
	s.Start()
	s.Stop()
}
