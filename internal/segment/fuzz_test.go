package segment

import "testing"

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
		if err := w.AppendColumn(gen, testBatch(gen)); err != nil {
			f.Fatal(err)
		}
	}
	if sealed {
		if _, err := w.Rotate(13); err != nil {
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
// generations, and an appended follow-up batch of the log's width survives
// a second open. Seeds are a valid single-file log plus truncations and bit
// flips of it; the corpus under testdata/fuzz/FuzzReplayWAL pins the
// framing corners, a column of the wrong width, a header of the previous
// format and a batch record whose column is cut short.
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
		values, width := 0, len(testBatch(0))
		w, info, err := OpenWAL(fs, "w", testFP, SyncAlways, func(gen uint64, column []float64) error {
			gens = append(gens, gen)
			values += len(column)
			width = len(column)
			return nil
		})
		if err != nil {
			return // rejected: corruption is an error, never a panic
		}
		// Each replayed value costs eight bytes of input.
		if values > len(data)/8 {
			t.Fatalf("%d replayed values from %d input bytes", values, len(data))
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
		if err := w.AppendColumn(next, make([]float64, width)); err != nil {
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
