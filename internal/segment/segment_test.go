package segment

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// testSegment encodes a span of 8 generations over 4 base series.
func testSegment(t testing.TB) (Header, [][]float64, []byte) {
	t.Helper()
	hdr := Header{Fingerprint: 0xDEADBEEFCAFE, FromGen: 36, ToGen: 44}
	rng := rand.New(rand.NewSource(3))
	series := make([][]float64, 4)
	for i := range series {
		vals := make([]float64, hdr.ToGen-hdr.FromGen)
		v := 50 + 50*rng.Float64()
		for j := range vals {
			v += rng.NormFloat64()
			vals[j] = v
		}
		series[i] = vals
	}
	img, err := EncodeSegment(hdr, series)
	if err != nil {
		t.Fatal(err)
	}
	return hdr, series, img
}

func TestSegmentRoundTrip(t *testing.T) {
	hdr, series, img := testSegment(t)
	if want := recordHeaderSize + segHeaderLen + 8*(recordHeaderSize+8*4); len(img) != want {
		t.Fatalf("image of %d bytes, want %d", len(img), want)
	}
	got, cols, err := DecodeSegment(img, len(series))
	if err != nil {
		t.Fatal(err)
	}
	if got != hdr {
		t.Fatalf("header %+v, want %+v", got, hdr)
	}
	if len(cols) != int(hdr.ToGen-hdr.FromGen) {
		t.Fatalf("%d columns, want %d", len(cols), hdr.ToGen-hdr.FromGen)
	}
	for g, col := range cols {
		if len(col) != len(series) {
			t.Fatalf("column %d has %d values, want %d", g, len(col), len(series))
		}
		for i, v := range col {
			if math.Float64bits(v) != math.Float64bits(series[i][g]) {
				t.Fatalf("series %d generation %d not bit-identical", i, g)
			}
		}
	}
}

// TestSegmentEmpty: a span of no generations and a span of zero-width
// columns both round-trip.
func TestSegmentEmpty(t *testing.T) {
	for _, tc := range []struct {
		hdr    Header
		series [][]float64
	}{
		{Header{Fingerprint: 7, FromGen: 1, ToGen: 1}, [][]float64{{}, {}}},
		{Header{Fingerprint: 7, FromGen: 1, ToGen: 3}, nil},
	} {
		img, err := EncodeSegment(tc.hdr, tc.series)
		if err != nil {
			t.Fatal(err)
		}
		got, cols, err := DecodeSegment(img, len(tc.series))
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.hdr || uint64(len(cols)) != tc.hdr.ToGen-tc.hdr.FromGen {
			t.Fatalf("%+v decoded as %+v, %d columns", tc.hdr, got, len(cols))
		}
	}
}

func TestSegmentEncodeRejectsMismatchedColumns(t *testing.T) {
	if _, err := EncodeSegment(Header{FromGen: 1, ToGen: 3}, [][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("a series shorter than the span accepted")
	}
	if _, err := EncodeSegment(Header{FromGen: 3, ToGen: 1}, nil); err == nil {
		t.Fatal("a span ending before it starts accepted")
	}
}

// TestSegmentDecodeRejectsWrongShape: the decoder refuses an image whose
// columns are not the expected width, a generation missing or extra, and
// an image of another format version, naming it.
func TestSegmentDecodeRejectsWrongShape(t *testing.T) {
	hdr, series, img := testSegment(t)
	for _, width := range []int{0, len(series) - 1, len(series) + 1} {
		if _, _, err := DecodeSegment(img, width); err == nil {
			t.Fatalf("columns of %d values decoded at width %d", len(series), width)
		}
	}
	short, err := EncodeSegment(Header{Fingerprint: hdr.Fingerprint, FromGen: hdr.FromGen, ToGen: hdr.ToGen - 1}, trim(series, 1))
	if err != nil {
		t.Fatal(err)
	}
	missing := append(append([]byte(nil), img[:recordHeaderSize+segHeaderLen]...), short[recordHeaderSize+segHeaderLen:]...)
	if _, _, err := DecodeSegment(missing, len(series)); err == nil {
		t.Fatal("a span with a generation missing decoded")
	}
	extra := append(append([]byte(nil), img...), img[len(img)-recordHeaderSize-8*len(series):]...)
	if _, _, err := DecodeSegment(extra, len(series)); err == nil {
		t.Fatal("a span with an extra generation decoded")
	}
	old := append([]byte("F2SEG001"), img[8:]...)
	if _, _, err := DecodeSegment(old, len(series)); err == nil || !strings.Contains(err.Error(), `"F2SEG001"`) {
		t.Fatalf("an image of another version: %v", err)
	}
}

// trim drops the last n values of every series.
func trim(series [][]float64, n int) [][]float64 {
	out := make([][]float64, len(series))
	for i, s := range series {
		out[i] = s[:len(s)-n]
	}
	return out
}

// TestSegmentEveryByteFlip corrupts every single byte of a valid image: the
// decoder must reject each mutation (every byte is a record length, or
// covered by a record CRC), and never panic.
func TestSegmentEveryByteFlip(t *testing.T) {
	_, series, img := testSegment(t)
	for i := range img {
		mut := append([]byte(nil), img...)
		mut[i] ^= 0xFF
		if _, _, err := DecodeSegment(mut, len(series)); err == nil {
			t.Fatalf("flip at byte %d of %d went undetected", i, len(img))
		}
	}
}

// TestSegmentEveryPrefix truncates the image at every length: all of them
// must return a clean error.
func TestSegmentEveryPrefix(t *testing.T) {
	_, series, img := testSegment(t)
	for cut := 0; cut < len(img); cut++ {
		if _, _, err := DecodeSegment(img[:cut], len(series)); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded", cut, len(img))
		}
	}
}

// TestSegmentSeriesBound: a column wider than one record can hold is
// refused on both sides, before anything is allocated for it.
func TestSegmentSeriesBound(t *testing.T) {
	over := maxRecordSize/8 + 1
	if _, err := EncodeSegment(Header{}, make([][]float64, over)); err == nil {
		t.Fatal("a column over the record bound encoded")
	}
	_, _, img := testSegment(t)
	if _, _, err := DecodeSegment(img, over); err == nil {
		t.Fatal("a column over the record bound decoded")
	}
}
