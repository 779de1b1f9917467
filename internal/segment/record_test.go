package segment

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// testRecords frames a few records of varying payload sizes into one stream
// and returns the stream plus the offset after each record.
func testRecords() ([]byte, []int64) {
	payloads := [][]byte{
		nil,
		{0x42},
		bytes.Repeat([]byte{0xAB}, 300),
		[]byte("the quick brown fox"),
	}
	var buf []byte
	var bounds []int64
	for i, p := range payloads {
		buf = AppendRecord(buf, byte(i+1), p)
		bounds = append(bounds, int64(len(buf)))
	}
	return buf, bounds
}

func TestRecordRoundTrip(t *testing.T) {
	data, bounds := testRecords()
	off := int64(0)
	for i, want := range bounds {
		typ, payload, next, err := ReadRecord(data, off)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if typ != byte(i+1) {
			t.Fatalf("record %d: type %d, want %d", i, typ, i+1)
		}
		if next != want {
			t.Fatalf("record %d: next offset %d, want %d", i, next, want)
		}
		_ = payload
		off = next
	}
	if off != int64(len(data)) {
		t.Fatalf("scan ended at %d, want %d", off, len(data))
	}
	if got := RecordBoundaries(data); len(got) != len(bounds) {
		t.Fatalf("RecordBoundaries found %d records, want %d", len(got), len(bounds))
	} else {
		for i := range got {
			if got[i] != bounds[i] {
				t.Fatalf("boundary %d: %d, want %d", i, got[i], bounds[i])
			}
		}
	}
}

// TestRecordEveryTruncation cuts the stream at every byte: a cut at a record
// boundary scans cleanly to the cut, any other cut stops with *tornError —
// never a panic, never a phantom record.
func TestRecordEveryTruncation(t *testing.T) {
	data, bounds := testRecords()
	isBoundary := map[int64]bool{0: true}
	for _, b := range bounds {
		isBoundary[b] = true
	}
	for cut := 0; cut <= len(data); cut++ {
		prefix := data[:cut]
		off := int64(0)
		var err error
		for off < int64(len(prefix)) {
			var next int64
			_, _, next, err = ReadRecord(prefix, off)
			if err != nil {
				break
			}
			off = next
		}
		if isBoundary[int64(cut)] {
			if err != nil {
				t.Fatalf("cut at boundary %d: unexpected error %v", cut, err)
			}
			continue
		}
		var torn *tornError
		if !errors.As(err, &torn) {
			t.Fatalf("cut at %d: want torn record, got %v", cut, err)
		}
		if last := RecordBoundaries(prefix); len(last) > 0 && last[len(last)-1] > int64(cut) {
			t.Fatalf("cut at %d: boundary %d past the cut", cut, last[len(last)-1])
		}
	}
}

// TestRecordEveryByteFlip flips every byte of the stream: every flip must be
// detected as an error somewhere in the scan (torn framing or CRC mismatch),
// because every byte is covered by either the length field, the CRC field,
// or the checksummed type+payload region.
func TestRecordEveryByteFlip(t *testing.T) {
	data, _ := testRecords()
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xFF
		off := int64(0)
		var err error
		for off < int64(len(mut)) {
			var next int64
			_, _, next, err = ReadRecord(mut, off)
			if err != nil {
				break
			}
			off = next
		}
		if err == nil {
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}
}

func TestRecordSizeBound(t *testing.T) {
	// A header claiming an absurd payload must be rejected before any
	// allocation, not treated as a torn record to wait for.
	hdr := make([]byte, RecordHeaderSize)
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xFF, 0xFF, 0xFF, 0x7F // ~2 GiB length
	_, _, _, err := ReadRecord(hdr, 0)
	if err == nil {
		t.Fatal("oversized record accepted")
	}
	var torn *tornError
	if errors.As(err, &torn) {
		t.Fatalf("oversized record reported as torn: %v", err)
	}
	if !strings.Contains(err.Error(), "max") {
		t.Fatalf("error does not mention the bound: %v", err)
	}
}

func TestRecordBadOffset(t *testing.T) {
	data, _ := testRecords()
	for _, off := range []int64{-1, int64(len(data)) + 1} {
		if _, _, _, err := ReadRecord(data, off); err == nil {
			t.Fatalf("offset %d accepted", off)
		}
	}
}
