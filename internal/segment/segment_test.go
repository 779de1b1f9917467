package segment

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// A segment is a sealed WAL file: its header record, one batch record per
// generation and the seal. These tests hold a sealed file to what the
// segment format promised — the columns come back bit for bit, every
// damaged byte and every cut is refused, and a column of another width is
// refused on both sides.

// sealedName is the sealed file testSegment writes; the log continues in
// wal-00000002.log, so the sealed file is never the final one.
const sealedName = "w/wal-00000001.log"

// testSegment logs 8 generations (36 … 43) of 4 base series and seals
// them, returning the filesystem, the columns and the sealed file's image.
func testSegment(t testing.TB) (*MemFS, [][]float64, []byte) {
	t.Helper()
	fs := NewMemFS()
	if err := fs.MkdirAll("w"); err != nil {
		t.Fatal(err)
	}
	w, _, err := OpenWAL(fs, "w", testFP, SyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	cols := make([][]float64, 8)
	for g := range cols {
		cols[g] = make([]float64, 4)
		for i := range cols[g] {
			cols[g][i] = 50 + 50*rng.Float64()
		}
		if err := w.AppendColumn(uint64(36+g), cols[g]); err != nil {
			t.Fatal(err)
		}
	}
	sealed, err := w.Rotate(44)
	if err != nil {
		t.Fatal(err)
	}
	img, err := fs.ReadFile(sealedName)
	if err != nil {
		t.Fatal(err)
	}
	if sealed != int64(len(img)) {
		t.Fatalf("Rotate reports %d sealed bytes, the file holds %d", sealed, len(img))
	}
	return fs, cols, img
}

// replaySealed plants img as the sealed file of testSegment's log and
// opens the log.
func replaySealed(fs *MemFS, img []byte) ([]replayedBatch, error) {
	c := fs.Clone()
	f, err := c.Create(sealedName)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(img); err != nil {
		return nil, err
	}
	f.Close()
	var got []replayedBatch
	_, _, err = OpenWAL(c, "w", testFP, SyncAlways, func(gen uint64, column []float64) error {
		got = append(got, replayedBatch{gen, append([]float64(nil), column...)})
		return nil
	})
	return got, err
}

func TestSegmentRoundTrip(t *testing.T) {
	fs, cols, img := testSegment(t)
	if want := RecordHeaderSize + 32 + 8*(RecordHeaderSize+8+8*4) + RecordHeaderSize; len(img) != want {
		t.Fatalf("sealed file of %d bytes, want %d", len(img), want)
	}
	got, err := replaySealed(fs, img)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cols) {
		t.Fatalf("%d columns replayed, want %d", len(got), len(cols))
	}
	for g, rb := range got {
		if rb.gen != uint64(36+g) || !sameColumn(rb.column, cols[g]) {
			t.Fatalf("generation %d replayed as %d %v, want %v", 36+g, rb.gen, rb.column, cols[g])
		}
	}
}

// TestSegmentEmpty: a sealed file without a batch and a log of zero-width
// columns both replay.
func TestSegmentEmpty(t *testing.T) {
	fs := newWALFS(t)
	w, _, _ := openCollect(t, fs, "w", testFP, SyncAlways)
	for gen := uint64(1); gen <= 2; gen++ {
		if _, err := w.Rotate(gen); err != nil {
			t.Fatal(err)
		}
	}
	for gen := uint64(2); gen <= 4; gen++ {
		if err := w.AppendColumn(gen, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Rotate(5); err != nil {
		t.Fatal(err)
	}
	_, info, got := openCollect(t, fs, "w", testFP, SyncAlways)
	if info.Files != 3 || len(got) != 3 || got[0].gen != 2 || len(got[2].column) != 0 {
		t.Fatalf("empty sealed files replayed as %+v, %+v", info, got)
	}
}

// TestSegmentEncodeRejectsMismatchedColumns: a column of another width than
// the log's is refused before a byte is written — also when the width was
// learned from the replay — and the log stays usable.
func TestSegmentEncodeRejectsMismatchedColumns(t *testing.T) {
	fs := newWALFS(t)
	w, _, _ := openCollect(t, fs, "w", testFP, SyncAlways)
	if err := w.AppendColumn(1, testBatch(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendColumn(2, []float64{1, 2}); err == nil {
		t.Fatal("a two-value column accepted in a log of three-value columns")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, _, _ = openCollect(t, fs, "w", testFP, SyncAlways)
	if err := w.AppendColumn(2, []float64{1, 2, 3, 4}); err == nil {
		t.Fatal("a four-value column accepted after replaying three-value columns")
	}
	if err := w.AppendColumn(2, testBatch(2)); err != nil {
		t.Fatalf("append after a refused column: %v", err)
	}
}

// TestSegmentDecodeRejectsWrongShape: a sealed file holding a column of
// another width than the log's, a batch record that is no generation and
// column, or a header of another format version is refused — the last
// naming the file and its magic.
func TestSegmentDecodeRejectsWrongShape(t *testing.T) {
	fs, cols, img := testSegment(t)
	header := img[:RecordHeaderSize+32]
	batch := func(gen uint64, col []float64, extra int) []byte {
		p := binary.LittleEndian.AppendUint64(nil, gen)
		for _, v := range col {
			p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v))
		}
		return AppendRecord(nil, recBatch, append(p, make([]byte, extra)...))
	}
	seal := AppendRecord(nil, recSeal, nil)
	for _, tc := range []struct {
		name  string
		image []byte
		want  string
	}{
		{"a narrower column", concat(header, batch(36, cols[0], 0), batch(37, cols[1][:3], 0), seal), "a column of 3 values"},
		{"a wider column", concat(header, batch(36, cols[0], 0), batch(37, append(cols[1], 1), 0), seal), "a column of 5 values"},
		{"a cut value", concat(header, batch(36, cols[0], 3), seal), "is not a generation and a column"},
		{"no generation", concat(header, AppendRecord(nil, recBatch, []byte{1, 2, 3}), seal), "is not a generation and a column"},
	} {
		_, err := replaySealed(fs, tc.image)
		if !errors.Is(err, ErrWALCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: %v, want corruption saying %q", tc.name, err, tc.want)
		}
	}
	old := append([]byte(nil), img...)
	copy(old[RecordHeaderSize:], "F2WAL001")
	FrameRecord(old[:RecordHeaderSize+32], 0)
	if _, err := replaySealed(fs, old); err == nil || errors.Is(err, ErrWALCorrupt) ||
		!strings.Contains(err.Error(), sealedName) || !strings.Contains(err.Error(), `"F2WAL001"`) {
		t.Fatalf("a file of the previous format: %v", err)
	}
}

func concat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TestSegmentEveryByteFlip corrupts every single byte of a sealed file: the
// replay must refuse each mutation as corruption (every byte is a record
// length, or covered by a record CRC), and never panic.
func TestSegmentEveryByteFlip(t *testing.T) {
	fs, _, img := testSegment(t)
	for i := range img {
		mut := append([]byte(nil), img...)
		mut[i] ^= 0xFF
		if _, err := replaySealed(fs, mut); !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("flip at byte %d of %d: %v", i, len(img), err)
		}
	}
}

// TestSegmentEveryPrefix cuts a sealed file at every length: a sealed file
// is never the final one, so no cut reads as a torn tail.
func TestSegmentEveryPrefix(t *testing.T) {
	fs, _, img := testSegment(t)
	for cut := 0; cut < len(img); cut++ {
		if _, err := replaySealed(fs, img[:cut]); !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("prefix of %d/%d bytes: %v", cut, len(img), err)
		}
	}
}

// TestSegmentSeriesBound: a column wider than one record can hold is
// refused before anything is written.
func TestSegmentSeriesBound(t *testing.T) {
	fs := newWALFS(t)
	w, _, _ := openCollect(t, fs, "w", testFP, SyncAlways)
	if err := w.AppendColumn(1, make([]float64, maxRecordSize/8)); err == nil {
		t.Fatal("a column over the record bound appended")
	}
	if _, _, bytes, files := w.Stats(); bytes != 0 || files != 0 {
		t.Fatalf("a refused column wrote %d bytes, %d files", bytes, files)
	}
}
