package segment

import (
	"errors"
	"math"
	"strings"
	"testing"
)

const testFP = 0x1122334455667788

type replayedBatch struct {
	gen    uint64
	column []float64
}

// openCollect opens the WAL and collects every replayed batch.
func openCollect(t *testing.T, fs FS, dir string, fp uint64, policy SyncPolicy) (*WAL, ReplayInfo, []replayedBatch) {
	t.Helper()
	var got []replayedBatch
	w, info, err := OpenWAL(fs, dir, fp, policy, func(gen uint64, column []float64) error {
		got = append(got, replayedBatch{gen: gen, column: append([]float64(nil), column...)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, info, got
}

func newWALFS(t *testing.T) *MemFS {
	t.Helper()
	fs := NewMemFS()
	if err := fs.MkdirAll("w"); err != nil {
		t.Fatal(err)
	}
	return fs
}

// testBatch is generation gen's column of three values.
func testBatch(gen uint64) []float64 {
	return []float64{float64(gen) + 0.25, -float64(gen), math.Pi * float64(gen)}
}

// sameColumn reports whether two columns are bit-identical.
func sameColumn(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestWALAppendReplay(t *testing.T) {
	fs := newWALFS(t)
	w, info, _ := openCollect(t, fs, "w", testFP, SyncAlways)
	if info.Files != 0 || info.Batches != 0 {
		t.Fatalf("fresh log reports %+v", info)
	}
	for gen := uint64(10); gen < 13; gen++ {
		if err := w.AppendColumn(gen, testBatch(gen)); err != nil {
			t.Fatal(err)
		}
	}
	appends, syncs, bytes, files := w.Stats()
	if appends != 3 || syncs != 3 || files != 1 || bytes == 0 {
		t.Fatalf("stats appends=%d syncs=%d bytes=%d files=%d", appends, syncs, bytes, files)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendColumn(13, testBatch(13)); err == nil {
		t.Fatal("append after Close succeeded")
	}

	_, info, got := openCollect(t, fs, "w", testFP, SyncAlways)
	if info.Files != 1 || info.Batches != 3 || info.TornBytes != 0 {
		t.Fatalf("reopen reports %+v", info)
	}
	for i, rb := range got {
		wantGen := uint64(10 + i)
		if rb.gen != wantGen {
			t.Fatalf("batch %d replayed gen %d, want %d", i, rb.gen, wantGen)
		}
		if want := testBatch(wantGen); !sameColumn(rb.column, want) {
			t.Fatalf("batch %d replayed %v, want %v", i, rb.column, want)
		}
	}
}

// TestWALAppendRejectsUnsortedEntries: Append, the (ID, value) wrapper,
// refuses entries out of ID order without poisoning the log, and writes
// an ordered batch as the column of its values.
func TestWALAppendRejectsUnsortedEntries(t *testing.T) {
	fs := newWALFS(t)
	w, _, _ := openCollect(t, fs, "w", testFP, SyncAlways)
	err := w.Append(1, []Entry{{ID: 4}, {ID: 2}, {ID: 9}})
	if err == nil {
		t.Fatal("unsorted batch accepted")
	}
	// The rejection happens before any byte is written, so it must not
	// poison the log.
	col := testBatch(1)
	if err := w.Append(1, []Entry{{ID: 1, Value: col[0]}, {ID: 4, Value: col[1]}, {ID: 9, Value: col[2]}}); err != nil {
		t.Fatalf("append after rejected batch: %v", err)
	}
	_, _, got := openCollect(t, fs, "w", testFP, SyncAlways)
	if len(got) != 1 || got[0].gen != 1 || !sameColumn(got[0].column, col) {
		t.Fatalf("replayed %+v, want generation 1's column %v", got, col)
	}
}

func TestWALRotateAndRemoveBelow(t *testing.T) {
	fs := newWALFS(t)
	w, _, _ := openCollect(t, fs, "w", testFP, SyncAlways)
	for gen := uint64(10); gen < 13; gen++ {
		if err := w.AppendColumn(gen, testBatch(gen)); err != nil {
			t.Fatal(err)
		}
	}
	if n := w.ActiveBatches(); n != 3 {
		t.Fatalf("%d batches in the active file, want 3", n)
	}
	sealed, err := w.Rotate(13)
	if err != nil {
		t.Fatal(err)
	}
	if data, _ := fs.ReadFile("w/wal-00000001.log"); sealed != int64(len(data)) {
		t.Fatalf("Rotate reports %d sealed bytes, the file holds %d", sealed, len(data))
	}
	for gen := uint64(13); gen < 15; gen++ {
		if err := w.AppendColumn(gen, testBatch(gen)); err != nil {
			t.Fatal(err)
		}
	}
	if n := w.ActiveBatches(); n != 2 {
		t.Fatalf("%d batches in the active file after the seal, want 2", n)
	}
	// Generation 12 is in the sealed file: nothing goes below it.
	if err := w.RemoveBelow(12); err != nil {
		t.Fatal(err)
	}
	if _, _, _, files := w.Stats(); files != 2 {
		t.Fatalf("%d files after RemoveBelow(12), want 2", files)
	}
	if err := w.RemoveBelow(13); err != nil {
		t.Fatal(err)
	}
	if _, _, _, files := w.Stats(); files != 1 {
		t.Fatalf("%d files after RemoveBelow(13), want 1", files)
	}
	// A crash after RemoveBelow must not resurrect the pruned file: the
	// removal was committed with a directory sync.
	fs.Crash()
	_, info, got := openCollect(t, fs, "w", testFP, SyncAlways)
	if info.Files != 1 || info.Batches != 2 {
		t.Fatalf("after prune+crash: %+v", info)
	}
	if got[0].gen != 13 || got[1].gen != 14 {
		t.Fatalf("after prune+crash replayed gens %d,%d", got[0].gen, got[1].gen)
	}
}

// failingRemoveFS fails the Remove numbered fail (from 1) and passes every
// other call through to its MemFS.
type failingRemoveFS struct {
	*MemFS
	removes, fail int
}

func (f *failingRemoveFS) Remove(name string) error {
	if f.removes++; f.removes == f.fail {
		return ErrInjected
	}
	return f.MemFS.Remove(name)
}

// TestWALRemoveBelowResumes: a prune whose second Remove fails keeps the
// files it did not remove listed, and the next prune removes exactly those
// instead of failing on the file the first one already removed.
func TestWALRemoveBelowResumes(t *testing.T) {
	fs := &failingRemoveFS{MemFS: newWALFS(t), fail: 2}
	w, _, _ := openCollect(t, fs, "w", testFP, SyncAlways)
	for gen := uint64(0); gen < 4; gen++ {
		if err := w.AppendColumn(gen, testBatch(gen)); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Rotate(gen + 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.RemoveBelow(4); !errors.Is(err, ErrInjected) {
		t.Fatalf("RemoveBelow with a failing Remove: %v", err)
	}
	if _, _, _, files := w.Stats(); files != 4 {
		t.Fatalf("%d files listed after a prune that removed one of four, want 4", files)
	}
	if err := w.RemoveBelow(4); err != nil {
		t.Fatalf("the prune after a failed one: %v", err)
	}
	if names, _ := fs.ReadDir("w"); len(names) != 1 {
		t.Fatalf("files left after the second prune: %v, want the active one", names)
	}
	if _, _, _, files := w.Stats(); files != 1 {
		t.Fatalf("%d files listed after the second prune, want 1", files)
	}
}

func TestWALTornTailTruncatedOnReopen(t *testing.T) {
	fs := newWALFS(t)
	w, _, _ := openCollect(t, fs, "w", testFP, SyncAlways)
	for gen := uint64(5); gen < 8; gen++ {
		if err := w.AppendColumn(gen, testBatch(gen)); err != nil {
			t.Fatal(err)
		}
	}
	whole := fs.DurableLen("w/wal-00000001.log")
	// Cut the next record a few bytes in: the write fails, the log poisons.
	fs.SetWriteLimit(5)
	if err := w.AppendColumn(8, testBatch(8)); !errors.Is(err, ErrInjected) {
		t.Fatalf("append under fault: %v", err)
	}
	if err := w.AppendColumn(9, testBatch(9)); err == nil || !strings.Contains(err.Error(), "permanently") {
		t.Fatalf("poisoned WAL accepted an append: %v", err)
	}
	if _, err := w.Rotate(9); err == nil {
		t.Fatal("poisoned WAL accepted a rotate")
	}
	fs.SetWriteLimit(-1)

	// Reopen without a crash (process kill): the torn 5 bytes are discarded,
	// the three whole batches replay, and the log accepts appends again.
	w2, info, got := openCollect(t, fs, "w", testFP, SyncAlways)
	if info.TornBytes != 5 || info.Batches != 3 || w2.ActiveBatches() != 3 {
		t.Fatalf("reopen after torn append: %+v, %d batches in the active file", info, w2.ActiveBatches())
	}
	if got[len(got)-1].gen != 7 {
		t.Fatalf("last replayed gen %d, want 7", got[len(got)-1].gen)
	}
	if fs.DurableLen("w/wal-00000001.log") > whole {
		// reopenTruncated syncs the truncation before anything is appended.
		t.Fatal("torn tail still durable after reopen")
	}
	if err := w2.AppendColumn(8, testBatch(8)); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	_, info, got = openCollect(t, fs, "w", testFP, SyncAlways)
	if info.Batches != 4 || info.TornBytes != 0 || got[3].gen != 8 {
		t.Fatalf("second reopen: %+v, last gen %d", info, got[len(got)-1].gen)
	}
}

func TestWALTornHeaderFileRemoved(t *testing.T) {
	fs := newWALFS(t)
	f, err := fs.Create("w/wal-00000001.log")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	w, info, got := openCollect(t, fs, "w", testFP, SyncAlways)
	if info.TornBytes != 5 || len(got) != 0 {
		t.Fatalf("torn-header open: %+v, %d batches", info, len(got))
	}
	names, err := fs.ReadDir("w")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("torn-header file survived: %v", names)
	}
	// The dead sequence number is not reused.
	if err := w.AppendColumn(1, testBatch(1)); err != nil {
		t.Fatal(err)
	}
	names, _ = fs.ReadDir("w")
	if len(names) != 1 || names[0] != "wal-00000002.log" {
		t.Fatalf("next file after torn header: %v", names)
	}
}

func TestWALCorruptSealedFileFailsHard(t *testing.T) {
	fs := newWALFS(t)
	w, _, _ := openCollect(t, fs, "w", testFP, SyncAlways)
	if err := w.AppendColumn(3, testBatch(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Rotate(4); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendColumn(4, testBatch(4)); err != nil {
		t.Fatal(err)
	}
	// Flip a bit inside the sealed file's batch record (past the 41-byte
	// header record): sealed damage is corruption, not a tolerable torn tail.
	if err := fs.FlipBit("w/wal-00000001.log", 50, 0); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenWAL(fs, "w", testFP, SyncAlways, nil)
	if !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("corrupt sealed file: %v", err)
	}
}

func TestWALUnsealedNonFinalFileFailsHard(t *testing.T) {
	fs := newWALFS(t)
	w, _, _ := openCollect(t, fs, "w", testFP, SyncAlways)
	if err := w.AppendColumn(3, testBatch(3)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Plant a later file: the first file is now unsealed AND not final,
	// which recovery must refuse — its end cannot be attributed to a crash.
	f, err := fs.Create("w/wal-00000002.log")
	if err != nil {
		t.Fatal(err)
	}
	hdr := appendWALHeader(nil, testFP, 4, 2)
	if _, err := f.Write(hdr); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, _, err = OpenWAL(fs, "w", testFP, SyncAlways, nil)
	if !errors.Is(err, ErrWALCorrupt) || !strings.Contains(err.Error(), "not the final one") {
		t.Fatalf("unsealed non-final file: %v", err)
	}
}

func TestWALGenerationGapFailsHard(t *testing.T) {
	fs := newWALFS(t)
	w, _, _ := openCollect(t, fs, "w", testFP, SyncAlways)
	if err := w.AppendColumn(5, testBatch(5)); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendColumn(7, testBatch(7)); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenWAL(fs, "w", testFP, SyncAlways, nil)
	if !errors.Is(err, ErrWALCorrupt) || !strings.Contains(err.Error(), "generation gap") {
		t.Fatalf("generation gap: %v", err)
	}
}

func TestWALFingerprintMismatch(t *testing.T) {
	fs := newWALFS(t)
	w, _, _ := openCollect(t, fs, "w", testFP, SyncAlways)
	if err := w.AppendColumn(1, testBatch(1)); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenWAL(fs, "w", testFP+1, SyncAlways, nil)
	if !errors.Is(err, ErrWALCorrupt) || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("foreign fingerprint: %v", err)
	}
}

func TestWALSyncPolicies(t *testing.T) {
	cases := []struct {
		policy    SyncPolicy
		appends   int
		wantSyncs int64
	}{
		{SyncAlways, 3, 3},
		{SyncNever, 3, 0},
		{SyncEvery(2), 4, 2},
		{SyncEvery(3), 7, 2},
	}
	for _, c := range cases {
		fs := newWALFS(t)
		w, _, _ := openCollect(t, fs, "w", testFP, c.policy)
		for i := 0; i < c.appends; i++ {
			if err := w.AppendColumn(uint64(i+1), testBatch(uint64(i+1))); err != nil {
				t.Fatal(err)
			}
		}
		_, syncs, _, _ := w.Stats()
		if syncs != c.wantSyncs {
			t.Fatalf("policy %v: %d syncs after %d appends, want %d", c.policy, syncs, c.appends, c.wantSyncs)
		}
	}
}

// TestWALSyncNeverLosesUnsyncedOnCrash pins the SyncNever contract: a power
// loss legally discards every record since the last sync — exactly the
// exposure the policy buys its speed with.
func TestWALSyncNeverLosesUnsyncedOnCrash(t *testing.T) {
	fs := newWALFS(t)
	w, _, _ := openCollect(t, fs, "w", testFP, SyncNever)
	for gen := uint64(1); gen <= 3; gen++ {
		if err := w.AppendColumn(gen, testBatch(gen)); err != nil {
			t.Fatal(err)
		}
	}
	fs.Crash()
	_, info, got := openCollect(t, fs, "w", testFP, SyncNever)
	// The file header was synced by startFile, so the file survives — but
	// none of the unsynced batch records do.
	if info.Files != 1 || len(got) != 0 {
		t.Fatalf("after crash under SyncNever: %+v, %d batches", info, len(got))
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"always", SyncAlways, true},
		{"", SyncAlways, true},
		{"never", SyncNever, true},
		{"NEVER", SyncNever, true},
		{"1", SyncEvery(1), true},
		{"64", SyncEvery(64), true},
		{"0", 0, false},
		{"-3", 0, false},
		{"sometimes", 0, false},
	}
	for _, c := range cases {
		got, err := ParseSyncPolicy(c.in)
		if c.ok != (err == nil) || (c.ok && got != c.want) {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	for _, p := range []SyncPolicy{SyncAlways, SyncNever, SyncEvery(8)} {
		back, err := ParseSyncPolicy(p.String())
		if err != nil || back != p {
			t.Fatalf("policy %v does not round-trip through String: %v, %v", p, back, err)
		}
	}
	if SyncEvery(0) != SyncAlways || SyncEvery(-2) != SyncAlways {
		t.Fatal("SyncEvery with n < 1 must fall back to SyncAlways")
	}
}

// TestWALReplayAllocs: replay decodes every batch record into one column,
// so opening a one-file log of 64 batch records allocates the same as
// opening one of 8. It used to allocate an entry slice per record.
func TestWALReplayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	replay := func(batches int) float64 {
		fs := newWALFS(t)
		w, _, _ := openCollect(t, fs, "w", testFP, SyncNever)
		for gen := uint64(1); gen <= uint64(batches); gen++ {
			if err := w.AppendColumn(gen, testBatch(gen)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		seen := 0
		fn := func(uint64, []float64) error { seen++; return nil }
		n := testing.AllocsPerRun(5, func() {
			w, _, err := OpenWAL(fs, "w", testFP, SyncNever, fn)
			if err != nil {
				t.Fatal(err)
			}
			w.Close()
		})
		if seen != 6*batches {
			t.Fatalf("%d records replayed over 6 opens of a %d-batch log", seen, batches)
		}
		return n
	}
	few, many := replay(8), replay(64)
	t.Logf("opening a log of 8 batch records allocates %v objects, one of 64 %v", few, many)
	if few != many {
		t.Fatalf("opening a log of 8 batch records allocates %v objects, one of 64 %v; want equal", few, many)
	}
}
