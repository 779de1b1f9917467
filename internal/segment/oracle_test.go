package segment

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// The encoder as it was before blocks were written in place: one bit per
// append in the bit stream, one fresh timestamp buffer per series, every
// block built in a scratch buffer and copied behind its frame, the index
// collected on the side. Kept as the reference the twins below hold the
// in-place encoder and the accumulator bitWriter against — byte for byte,
// since the files they write must stay the files the parent commit reads.

type bitWriterOracle struct {
	buf  []byte
	cur  byte
	nCur uint // bits currently in cur
}

func (w *bitWriterOracle) writeBit(b uint64) {
	w.cur = w.cur<<1 | byte(b&1)
	w.nCur++
	if w.nCur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

func (w *bitWriterOracle) writeBits(v uint64, n uint) {
	for i := n; i > 0; i-- {
		w.writeBit(v >> (i - 1))
	}
}

func (w *bitWriterOracle) finish() []byte {
	if w.nCur > 0 {
		w.buf = append(w.buf, w.cur<<(8-w.nCur))
		w.cur, w.nCur = 0, 0
	}
	return w.buf
}

func appendValuesXOROracle(b []byte, values []float64) []byte {
	if len(values) == 0 {
		return b
	}
	w := bitWriterOracle{buf: b}
	prev := math.Float64bits(values[0])
	w.writeBits(prev, 64)
	prevLead, prevSig := uint(65), uint(0)
	for _, v := range values[1:] {
		cur := math.Float64bits(v)
		xor := cur ^ prev
		prev = cur
		if xor == 0 {
			w.writeBit(0)
			continue
		}
		w.writeBit(1)
		lead := uint(bits.LeadingZeros64(xor))
		if lead > 63 {
			lead = 63
		}
		trail := uint(bits.TrailingZeros64(xor))
		sig := 64 - lead - trail
		if prevLead <= lead && prevLead+prevSig >= lead+sig {
			w.writeBit(0)
			w.writeBits(xor>>(64-prevLead-prevSig), prevSig)
			continue
		}
		w.writeBit(1)
		w.writeBits(uint64(lead), 6)
		w.writeBits(uint64(sig-1), 6)
		w.writeBits(xor>>trail, sig)
		prevLead, prevSig = lead, sig
	}
	return w.finish()
}

func appendBlockOracle(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	return append(buf, payload...)
}

func encodeSegmentOracle(hdr Header, series []Series) ([]byte, error) {
	if len(series) > maxSegmentSeries {
		return nil, fmt.Errorf("segment: %d series exceeds the format bound", len(series))
	}
	buf := make([]byte, 0, 1024)
	buf = append(buf, segMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, hdr.Fingerprint)
	buf = binary.LittleEndian.AppendUint64(buf, hdr.FromGen)
	buf = binary.LittleEndian.AppendUint64(buf, hdr.ToGen)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(series)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))

	type indexEntry struct {
		key    string
		offset uint64
		count  uint64
	}
	index := make([]indexEntry, 0, len(series))
	var scratch []byte
	for _, s := range series {
		if len(s.Times) != len(s.Values) {
			return nil, fmt.Errorf("segment: series %q has %d timestamps but %d values", s.Key, len(s.Times), len(s.Values))
		}
		index = append(index, indexEntry{key: s.Key, offset: uint64(len(buf)), count: uint64(len(s.Times))})
		scratch = scratch[:0]
		scratch = appendUvarint(scratch, uint64(len(s.Key)))
		scratch = append(scratch, s.Key...)
		scratch = appendUvarint(scratch, uint64(len(s.Times)))
		ts := appendTimesDoD(nil, s.Times)
		scratch = appendUvarint(scratch, uint64(len(ts)))
		scratch = append(scratch, ts...)
		scratch = appendValuesXOROracle(scratch, s.Values)
		buf = appendBlockOracle(buf, scratch)
	}

	indexOff := uint64(len(buf))
	scratch = scratch[:0]
	scratch = appendUvarint(scratch, uint64(len(index)))
	for _, e := range index {
		scratch = appendUvarint(scratch, uint64(len(e.key)))
		scratch = append(scratch, e.key...)
		scratch = appendUvarint(scratch, e.offset)
		scratch = appendUvarint(scratch, e.count)
	}
	buf = appendBlockOracle(buf, scratch)
	buf = binary.LittleEndian.AppendUint64(buf, indexOff)
	buf = append(buf, segEndMagic[:]...)
	return buf, nil
}

// bitWrites is a generated sequence of writeBits calls.
type bitWrites []struct {
	v uint64
	n uint
}

func (bitWrites) Generate(rng *rand.Rand, size int) reflect.Value {
	ws := make(bitWrites, rng.Intn(4*size+2))
	for i := range ws {
		ws[i].v = rng.Uint64() // bits above n are garbage the writer must drop
		switch rng.Intn(6) {
		case 0:
			ws[i].n = 64
		case 1:
			ws[i].n = 1
		case 2:
			ws[i].n = 0
		default:
			ws[i].n = uint(rng.Intn(65))
		}
	}
	return reflect.ValueOf(ws)
}

// TestBitWriterTwin: any sequence of writes — widths 0 to 64, garbage above
// the width, onto a non-empty prefix — yields the bytes the bit-at-a-time
// writer yields.
func TestBitWriterTwin(t *testing.T) {
	twin := func(ws bitWrites) bool {
		prefix := []byte{0xAB, 0xCD, 0xEF}
		w := bitWriter{buf: append([]byte(nil), prefix...)}
		o := bitWriterOracle{buf: append([]byte(nil), prefix...)}
		for _, x := range ws {
			w.writeBits(x.v, x.n)
			o.writeBits(x.v, x.n)
		}
		return bytes.Equal(w.finish(), o.finish())
	}
	if err := quick.Check(twin, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// twinSegment is a generated EncodeSegment input.
type twinSegment struct {
	hdr    Header
	series []Series
}

// twinValues draws a value column from the shapes the XOR stream treats
// differently: noisy walks, constants, NaN, infinities, signed zeros,
// denormals and arbitrary bit patterns.
func twinValues(rng *rand.Rand, n int) []float64 {
	vals := make([]float64, n)
	shape := rng.Intn(5)
	v := 100 * rng.NormFloat64()
	for i := range vals {
		switch shape {
		case 0: // random walk
			v += rng.NormFloat64()
			vals[i] = v
		case 1: // constant
			vals[i] = v
		case 2: // specials
			specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
				5e-324, -5e-324, math.SmallestNonzeroFloat64 * 1000, math.MaxFloat64, -math.MaxFloat64, 1, v}
			vals[i] = specials[rng.Intn(len(specials))]
		case 3: // arbitrary bits, NaN payloads included
			vals[i] = math.Float64frombits(rng.Uint64())
		default: // integers: long trailing-zero runs
			vals[i] = float64(rng.Intn(1000))
		}
	}
	return vals
}

func (twinSegment) Generate(rng *rand.Rand, size int) reflect.Value {
	seg := twinSegment{hdr: Header{Fingerprint: rng.Uint64(), FromGen: uint64(rng.Intn(1000))}}
	// Lengths 0 and 1 often: the empty and the one-point column are their
	// own branches of both column encodings.
	length := func() int {
		if rng.Intn(3) == 0 {
			return rng.Intn(2)
		}
		return rng.Intn(size + 2)
	}
	newTimes := func(n int) []int64 {
		times := make([]int64, n)
		t := int64(rng.Intn(2000)) - 1000
		for i := range times {
			times[i] = t
			if rng.Intn(4) == 0 {
				t += int64(rng.Intn(50)) - 10 // irregular, now and then backwards
			} else {
				t++
			}
		}
		return times
	}
	shared := newTimes(length())
	seg.hdr.ToGen = seg.hdr.FromGen + uint64(len(shared))
	for i, n := 0, rng.Intn(12); i < n; i++ {
		s := Series{Key: fmt.Sprintf("k%d|%x", i, rng.Uint32()), Times: shared}
		switch rng.Intn(4) {
		case 0: // its own column
			s.Times = newTimes(length())
		case 1: // an equal copy: same bytes on disk, not the same slice
			s.Times = append([]int64(nil), shared...)
		case 2:
			if rng.Intn(4) == 0 {
				s.Key = "" // keys may be empty, and long
			} else if rng.Intn(4) == 0 {
				s.Key = string(bytes.Repeat([]byte{'x'}, 200))
			}
		}
		s.Values = twinValues(rng, len(s.Times))
		seg.series = append(seg.series, s)
	}
	return reflect.ValueOf(seg)
}

// TestEncodeSegmentTwin: EncodeSegment writes the bytes the scratch-and-copy
// encoder wrote, whatever the columns hold and whether or not series share
// their timestamp slice.
func TestEncodeSegmentTwin(t *testing.T) {
	twin := func(seg twinSegment) bool {
		want, err := encodeSegmentOracle(seg.hdr, seg.series)
		if err != nil {
			t.Error(err)
			return false
		}
		got, err := EncodeSegment(seg.hdr, seg.series)
		if err != nil {
			t.Error(err)
			return false
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(twin, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
	// The fixed image of the decoder tests, and the empty segment.
	hdr, series, img := testSegment(t)
	if want, _ := encodeSegmentOracle(hdr, series); !bytes.Equal(img, want) {
		t.Fatal("test segment differs from the oracle's image")
	}
	got, _ := EncodeSegment(Header{Fingerprint: 7, FromGen: 1, ToGen: 2}, nil)
	if want, _ := encodeSegmentOracle(Header{Fingerprint: 7, FromGen: 1, ToGen: 2}, nil); !bytes.Equal(got, want) {
		t.Fatal("empty segment differs from the oracle's image")
	}
}
