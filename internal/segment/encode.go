package segment

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Columnar encoding primitives: byte-aligned varints for lengths and
// delta-of-delta timestamps, and a bit-packed XOR stream for float64
// values (the Gorilla/FTDC approach: consecutive observations of one
// series share exponent and most mantissa bits, so XOR against the
// previous value concentrates the information in a short run the stream
// stores with an explicit leading-zero/length window).

// appendUvarint / appendVarint append protobuf-style varints.
func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

// decoder walks a byte slice with bounds-checked reads; all errors funnel
// through one corruption message carrying the position.
type decoder struct {
	data []byte
	off  int
}

func (d *decoder) errf(format string, args ...any) error {
	return fmt.Errorf("segment: corrupt at byte %d: %s", d.off, fmt.Sprintf(format, args...))
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, d.errf("bad uvarint")
	}
	d.off += n
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		return 0, d.errf("bad varint")
	}
	d.off += n
	return v, nil
}

func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.off+n > len(d.data) {
		return nil, d.errf("%d bytes wanted, %d remain", n, len(d.data)-d.off)
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b, nil
}

// bitWriter packs bits MSB-first onto a byte slice, eight bytes at a time:
// bits collect right-aligned in a 64-bit accumulator that is appended
// big-endian whenever it fills.
type bitWriter struct {
	buf []byte
	acc uint64
	n   uint // bits held in acc, always < 64
}

// writeBits appends the low n bits of v (n <= 64), most significant first.
func (w *bitWriter) writeBits(v uint64, n uint) {
	if n < 64 {
		v &= 1<<n - 1
	}
	free := 64 - w.n
	if n < free {
		w.acc = w.acc<<n | v
		w.n += n
		return
	}
	rest := n - free // bits of v that do not fit the accumulator any more
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc<<free|v>>rest)
	w.acc, w.n = v&(1<<rest-1), rest
}

// finish flushes the held bits (the last byte zero-padded) and returns the
// stream.
func (w *bitWriter) finish() []byte {
	for ; w.n >= 8; w.n -= 8 {
		w.buf = append(w.buf, byte(w.acc>>(w.n-8)))
	}
	if w.n > 0 {
		w.buf = append(w.buf, byte(w.acc<<(8-w.n)))
	}
	w.acc, w.n = 0, 0
	return w.buf
}

// bitReader consumes bits MSB-first from a byte slice.
type bitReader struct {
	data []byte
	off  uint // bit offset
}

func (r *bitReader) readBits(n uint) (uint64, error) {
	if n > 64 {
		return 0, fmt.Errorf("segment: bit read of %d bits", n)
	}
	var v uint64
	for i := uint(0); i < n; i++ {
		byteIdx := (r.off + i) >> 3
		if byteIdx >= uint(len(r.data)) {
			return 0, fmt.Errorf("segment: bit stream truncated at bit %d", r.off+i)
		}
		bit := (r.data[byteIdx] >> (7 - ((r.off + i) & 7))) & 1
		v = v<<1 | uint64(bit)
	}
	r.off += n
	return v, nil
}

// appendTimesDoD encodes a timestamp column: the first value as a zigzag
// varint, the first delta as a zigzag varint, then one zigzag varint per
// remaining point holding the delta-of-delta. Regular sampling (our batch
// generations advance by exactly one) encodes to a single zero byte per
// point after the first two.
func appendTimesDoD(b []byte, times []int64) []byte {
	if len(times) == 0 {
		return b
	}
	b = appendVarint(b, times[0])
	if len(times) == 1 {
		return b
	}
	prevDelta := times[1] - times[0]
	b = appendVarint(b, prevDelta)
	for i := 2; i < len(times); i++ {
		delta := times[i] - times[i-1]
		b = appendVarint(b, delta-prevDelta)
		prevDelta = delta
	}
	return b
}

// decodeTimesDoD decodes count timestamps from d.
func decodeTimesDoD(d *decoder, count int) ([]int64, error) {
	if count == 0 {
		return nil, nil
	}
	// Each point costs at least one byte; reject counts the remaining
	// bytes cannot possibly hold before allocating for them.
	if count < 0 || count > len(d.data)-d.off {
		return nil, d.errf("timestamp count %d exceeds remaining bytes", count)
	}
	times := make([]int64, count)
	t0, err := d.varint()
	if err != nil {
		return nil, err
	}
	times[0] = t0
	if count == 1 {
		return times, nil
	}
	delta, err := d.varint()
	if err != nil {
		return nil, err
	}
	times[1] = times[0] + delta
	for i := 2; i < count; i++ {
		dod, err := d.varint()
		if err != nil {
			return nil, err
		}
		delta += dod
		times[i] = times[i-1] + delta
	}
	return times, nil
}

// appendValuesXOR encodes a float64 column as a Gorilla-style XOR bit
// stream: the first value raw (64 bits), then per value either a single 0
// bit (identical to predecessor), or 1 followed by a window reuse bit —
// 10 reuses the previous leading/length window, 11 writes a new one as
// 6 bits of leading zeros and 6 bits of significant-length-minus-one —
// and the significant XOR bits.
func appendValuesXOR(b []byte, values []float64) []byte {
	if len(values) == 0 {
		return b
	}
	w := bitWriter{buf: b}
	prev := math.Float64bits(values[0])
	w.writeBits(prev, 64)
	prevLead, prevSig := uint(65), uint(0) // invalid window: first XOR writes its own
	for _, v := range values[1:] {
		cur := math.Float64bits(v)
		xor := cur ^ prev
		prev = cur
		if xor == 0 {
			w.writeBits(0, 1)
			continue
		}
		lead := uint(bits.LeadingZeros64(xor))
		if lead > 63 {
			lead = 63
		}
		trail := uint(bits.TrailingZeros64(xor))
		sig := 64 - lead - trail
		if prevLead <= lead && prevLead+prevSig >= lead+sig {
			// The previous window still covers every significant bit.
			w.writeBits(0b10, 2)
			w.writeBits(xor>>(64-prevLead-prevSig), prevSig)
			continue
		}
		w.writeBits(0b11<<12|uint64(lead)<<6|uint64(sig-1), 14)
		w.writeBits(xor>>trail, sig)
		prevLead, prevSig = lead, sig
	}
	return w.finish()
}

// decodeValuesXOR decodes count float64 values from the bit stream in buf.
func decodeValuesXOR(buf []byte, count int) ([]float64, error) {
	if count == 0 {
		return nil, nil
	}
	// Every value past the first costs at least one bit, the first 64.
	if count < 0 || int64(count-1)+64 > int64(len(buf))*8 {
		return nil, fmt.Errorf("segment: value count %d exceeds %d stream bytes", count, len(buf))
	}
	r := bitReader{data: buf}
	values := make([]float64, count)
	prev, err := r.readBits(64)
	if err != nil {
		return nil, err
	}
	values[0] = math.Float64frombits(prev)
	lead, sig := uint(0), uint(0)
	for i := 1; i < count; i++ {
		ctrl, err := r.readBits(1)
		if err != nil {
			return nil, err
		}
		if ctrl == 0 {
			values[i] = math.Float64frombits(prev)
			continue
		}
		reuse, err := r.readBits(1)
		if err != nil {
			return nil, err
		}
		if reuse == 1 {
			l, err := r.readBits(6)
			if err != nil {
				return nil, err
			}
			s, err := r.readBits(6)
			if err != nil {
				return nil, err
			}
			lead, sig = uint(l), uint(s)+1
		} else if sig == 0 {
			return nil, fmt.Errorf("segment: XOR stream reuses a window before defining one")
		}
		if lead+sig > 64 {
			return nil, fmt.Errorf("segment: XOR window %d+%d exceeds 64 bits", lead, sig)
		}
		bitsv, err := r.readBits(sig)
		if err != nil {
			return nil, err
		}
		prev ^= bitsv << (64 - lead - sig)
		values[i] = math.Float64frombits(prev)
	}
	return values, nil
}
