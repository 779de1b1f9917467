package segment

import (
	"bytes"
	"testing"
)

// FuzzDecodeSegment feeds arbitrary bytes to the segment decoder at the
// widths fuzzWidths. Two properties: robustness — corrupt input of any shape
// returns an error, never a panic, and never an allocation larger than the
// input could describe — and canonical round-trip: an image the decoder
// accepts re-encodes to the identical bytes. Seeds start the fuzzer at a
// valid image plus truncated and bit-flipped corruptions of it; the
// checked-in corpus under testdata/fuzz/FuzzDecodeSegment pins format
// corners: empty input, a bare magic, a bare header, a huge record length,
// a column of the wrong width, a generation missing or extra, and images of
// the previous format, which must be refused.
func FuzzDecodeSegment(f *testing.F) {
	_, _, img := testSegment(f)
	f.Add(append([]byte(nil), img...))
	for _, cut := range []int{0, 8, recordHeaderSize + segHeaderLen, len(img) / 2, len(img) - recordHeaderSize, len(img) - 1} {
		f.Add(append([]byte(nil), img[:cut]...))
	}
	for _, pos := range []int{4, 20, len(img) / 2, len(img) - 4} {
		flipped := append([]byte(nil), img...)
		flipped[pos] ^= 0xFF
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // bound decode cost; valid test images are well under 1 KiB
		}
		for _, width := range fuzzWidths {
			hdr, cols, err := DecodeSegment(data, width) // must not panic
			if err != nil {
				continue
			}
			// Over-allocation guard: a column costs a record frame plus
			// eight bytes a value.
			if len(cols)*(recordHeaderSize+8*width) > len(data) {
				t.Fatalf("%d columns of %d values from %d input bytes", len(cols), width, len(data))
			}
			series := make([][]float64, width)
			for i := range series {
				for _, col := range cols {
					series[i] = append(series[i], col[i])
				}
			}
			img2, err := EncodeSegment(hdr, series)
			if err != nil {
				t.Fatalf("accepted image failed to re-encode: %v", err)
			}
			if !bytes.Equal(img2, data) {
				t.Fatalf("width %d: accepted image re-encodes to other bytes", width)
			}
		}
	})
}

// fuzzWidths are the column widths FuzzDecodeSegment decodes every input
// at: none, one, and testSegment's.
var fuzzWidths = []int{0, 1, 4}

// fuzzWALImage builds a realistic WAL file image (header + batches, with the
// fuzz fingerprint) for seeding FuzzReplayWAL.
func fuzzWALImage(f *testing.F, sealed bool) []byte {
	f.Helper()
	fs := NewMemFS()
	if err := fs.MkdirAll("w"); err != nil {
		f.Fatal(err)
	}
	w, _, err := OpenWAL(fs, "w", testFP, SyncAlways, nil)
	if err != nil {
		f.Fatal(err)
	}
	for gen := uint64(10); gen < 13; gen++ {
		if err := w.Append(gen, testBatch(gen)); err != nil {
			f.Fatal(err)
		}
	}
	if sealed {
		if err := w.Rotate(13); err != nil {
			f.Fatal(err)
		}
	}
	data, err := fs.ReadFile("w/wal-00000001.log")
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzReplayWAL plants arbitrary bytes as the only WAL file and opens the
// log. Properties: OpenWAL never panics and never over-allocates; whatever it
// accepts leaves a usable log — the batches replay with contiguous
// generations, and an appended follow-up batch survives a second open. Seeds
// are a valid single-file log plus truncations and bit flips of it; the
// corpus under testdata/fuzz/FuzzReplayWAL pins the framing corners.
func FuzzReplayWAL(f *testing.F) {
	img := fuzzWALImage(f, false)
	f.Add(append([]byte(nil), img...))
	f.Add(fuzzWALImage(f, true))
	for _, cut := range []int{0, 5, 41, len(img) / 2, len(img) - 1} {
		f.Add(append([]byte(nil), img[:cut]...))
	}
	for _, pos := range []int{0, 12, 45, len(img) / 2} {
		flipped := append([]byte(nil), img...)
		flipped[pos] ^= 0xFF
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		fs := NewMemFS()
		if err := fs.MkdirAll("w"); err != nil {
			t.Fatal(err)
		}
		fl, err := fs.Create("w/wal-00000001.log")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fl.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := fl.Sync(); err != nil {
			t.Fatal(err)
		}
		fl.Close()
		if err := fs.SyncDir("w"); err != nil {
			t.Fatal(err)
		}

		var gens []uint64
		entryCount := 0
		w, info, err := OpenWAL(fs, "w", testFP, SyncAlways, func(gen uint64, entries []Entry) error {
			gens = append(gens, gen)
			entryCount += len(entries)
			return nil
		})
		if err != nil {
			return // rejected: corruption is an error, never a panic
		}
		// Each replayed entry costs at least 9 bytes of input.
		if entryCount > len(data)/9+1 {
			t.Fatalf("%d replayed entries from %d input bytes", entryCount, len(data))
		}
		for i := 1; i < len(gens); i++ {
			if gens[i] != gens[i-1]+1 {
				t.Fatalf("replayed generations not contiguous: %v", gens)
			}
		}
		// The accepted log must be appendable, and the appended batch must
		// survive a reopen along with everything replayed before it.
		next := uint64(1)
		if len(gens) > 0 {
			next = gens[len(gens)-1] + 1
		}
		if err := w.Append(next, testBatch(next)); err != nil {
			t.Fatalf("accepted log refused an append: %v", err)
		}
		_, info2, err := OpenWAL(fs, "w", testFP, SyncAlways, nil)
		if err != nil {
			t.Fatalf("log unreadable after append: %v", err)
		}
		if info2.Batches != info.Batches+1 || info2.TornBytes != 0 {
			t.Fatalf("reopen after append: %+v following %+v", info2, info)
		}
	})
}
