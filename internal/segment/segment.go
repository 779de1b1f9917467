package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Columnar time-series segment format. A segment is the compacted, read-
// optimized form of a sealed WAL span: per base series one block holding
// the series' timestamps (delta-of-delta varints) and values (XOR bit
// stream), each block CRC-framed, with a footer index mapping series keys
// to block offsets so a reader can fetch one series without scanning. The
// layout is append-only — blocks are written once and never rewritten:
//
//	header   magic "F2SEG001", fingerprint, fromGen, toGen, series count, CRC
//	blocks   ×N: u32 len ‖ u32 CRC ‖ key ‖ count ‖ timestamps ‖ values
//	index    u32 len ‖ u32 CRC ‖ (key, offset, count)×N
//	trailer  u64 index offset ‖ magic "F2SEGEND"
//
// The trailer is fixed-size at the file end, so opening a segment is: seek
// to the trailer, check the magic, jump to the index, verify its CRC, then
// read blocks on demand. Every length and offset is bounds-checked and the
// decoder never allocates more than the input could possibly describe —
// FuzzDecodeSegment holds it to that.

var (
	segMagic      = [8]byte{'F', '2', 'S', 'E', 'G', '0', '0', '1'}
	segEndMagic   = [8]byte{'F', '2', 'S', 'E', 'G', 'E', 'N', 'D'}
	segHeaderLen  = 8 + 8 + 8 + 8 + 4 + 4 // magic, fingerprint, fromGen, toGen, count, CRC
	segTrailerLen = 8 + 8                 // index offset, end magic
)

// Header identifies a segment: the cube fingerprint it belongs to and the
// half-open generation span [FromGen, ToGen) its columns cover.
type Header struct {
	Fingerprint uint64
	FromGen     uint64
	ToGen       uint64
}

// Series is one column pair: a series key (the node's canonical coordinate
// key) with its timestamps and values over the segment span. For F²DB
// compactions Times are the consecutive batch generations, which the
// delta-of-delta encoding stores in one byte per point.
type Series struct {
	Key    string
	Times  []int64
	Values []float64
}

// maxSegmentSeries bounds the series count a header may claim, against
// corrupt counts driving allocation.
const maxSegmentSeries = 16 << 20

// blockFrameLen is the u32 length ‖ u32 CRC-32C prefix of every block.
const blockFrameLen = 8

// EncodeSegment renders a complete segment image. Series are written in
// the order given; the index preserves it. It allocates per segment, not
// per series: the image is sized up front for the worst the columns can
// cost (a byte a timestamp when regularly sampled, 78 bits a value), every
// block is encoded in place behind its reserved frame, series that share
// their Times slice share one encoding of it, and the index finds the
// block offsets by walking the frames.
func EncodeSegment(hdr Header, series []Series) ([]byte, error) {
	if len(series) > maxSegmentSeries {
		return nil, fmt.Errorf("segment: %d series exceeds the format bound", len(series))
	}
	size := segHeaderLen + 2*blockFrameLen + segTrailerLen
	for _, s := range series {
		size += blockFrameLen + 2*len(s.Key) + 5*binary.MaxVarintLen32 + 11*len(s.Times)
	}
	buf := make([]byte, segHeaderLen, size)
	copy(buf, segMagic[:])
	binary.LittleEndian.PutUint64(buf[8:], hdr.Fingerprint)
	binary.LittleEndian.PutUint64(buf[16:], hdr.FromGen)
	binary.LittleEndian.PutUint64(buf[24:], hdr.ToGen)
	binary.LittleEndian.PutUint32(buf[32:], uint32(len(series)))
	binary.LittleEndian.PutUint32(buf[segHeaderLen-4:], crc32.Checksum(buf[:segHeaderLen-4], crcTable))

	var ts []byte // the encoded form of tsOf
	var tsOf []int64
	for _, s := range series {
		if len(s.Times) != len(s.Values) {
			return nil, fmt.Errorf("segment: series %q has %d timestamps but %d values", s.Key, len(s.Times), len(s.Values))
		}
		if len(s.Times) != len(tsOf) || len(tsOf) > 0 && &s.Times[0] != &tsOf[0] {
			ts, tsOf = appendTimesDoD(ts[:0], s.Times), s.Times
		}
		start := len(buf)
		buf = append(buf, make([]byte, blockFrameLen)...)
		buf = appendUvarint(buf, uint64(len(s.Key)))
		buf = append(buf, s.Key...)
		buf = appendUvarint(buf, uint64(len(s.Times)))
		buf = appendUvarint(buf, uint64(len(ts)))
		buf = append(buf, ts...)
		buf = appendValuesXOR(buf, s.Values)
		frameBlock(buf, start)
	}

	indexOff := len(buf)
	buf = append(buf, make([]byte, blockFrameLen)...)
	buf = appendUvarint(buf, uint64(len(series)))
	off := segHeaderLen // of the series' block: each frame says where the next starts
	for _, s := range series {
		buf = appendUvarint(buf, uint64(len(s.Key)))
		buf = append(buf, s.Key...)
		buf = appendUvarint(buf, uint64(off))
		buf = appendUvarint(buf, uint64(len(s.Times)))
		off += blockFrameLen + int(binary.LittleEndian.Uint32(buf[off:]))
	}
	frameBlock(buf, indexOff)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(indexOff))
	return append(buf, segEndMagic[:]...), nil
}

// frameBlock completes the block whose reserved frame starts at start and
// whose payload runs to the end of buf: u32 length ‖ u32 CRC-32C ‖ payload.
func frameBlock(buf []byte, start int) {
	payload := buf[start+blockFrameLen:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
}

// readBlock validates and returns the framed payload at off.
func readBlock(data []byte, off uint64) ([]byte, error) {
	if off > uint64(len(data)) || uint64(len(data))-off < 8 {
		return nil, fmt.Errorf("segment: block offset %d out of range", off)
	}
	n := binary.LittleEndian.Uint32(data[off : off+4])
	want := binary.LittleEndian.Uint32(data[off+4 : off+8])
	if uint64(n) > uint64(len(data))-off-8 {
		return nil, fmt.Errorf("segment: block at %d claims %d bytes, %d remain", off, n, uint64(len(data))-off-8)
	}
	payload := data[off+8 : off+8+uint64(n)]
	if crc := crc32.Checksum(payload, crcTable); crc != want {
		return nil, fmt.Errorf("segment: block at %d: CRC mismatch (stored %08x, computed %08x)", off, want, crc)
	}
	return payload, nil
}

// DecodeSegment validates a segment image and decodes every series, in
// index order. Corrupt input of any shape returns an error; it never
// panics and never allocates more than the input can describe.
func DecodeSegment(data []byte) (Header, []Series, error) {
	var hdr Header
	if len(data) < segHeaderLen+segTrailerLen {
		return hdr, nil, fmt.Errorf("segment: %d bytes is shorter than header+trailer", len(data))
	}
	if string(data[:8]) != string(segMagic[:]) {
		return hdr, nil, fmt.Errorf("segment: bad magic")
	}
	if crc := crc32.Checksum(data[:segHeaderLen-4], crcTable); crc != binary.LittleEndian.Uint32(data[segHeaderLen-4:segHeaderLen]) {
		return hdr, nil, fmt.Errorf("segment: header CRC mismatch")
	}
	hdr.Fingerprint = binary.LittleEndian.Uint64(data[8:16])
	hdr.FromGen = binary.LittleEndian.Uint64(data[16:24])
	hdr.ToGen = binary.LittleEndian.Uint64(data[24:32])
	count := binary.LittleEndian.Uint32(data[32:36])
	if count > maxSegmentSeries {
		return hdr, nil, fmt.Errorf("segment: header claims %d series", count)
	}

	trailer := data[len(data)-segTrailerLen:]
	if string(trailer[8:]) != string(segEndMagic[:]) {
		return hdr, nil, fmt.Errorf("segment: bad end magic")
	}
	indexOff := binary.LittleEndian.Uint64(trailer[:8])
	indexPayload, err := readBlock(data[:len(data)-segTrailerLen], indexOff)
	if err != nil {
		return hdr, nil, fmt.Errorf("segment: index: %w", err)
	}

	d := &decoder{data: indexPayload}
	n, err := d.uvarint()
	if err != nil {
		return hdr, nil, err
	}
	if n != uint64(count) {
		return hdr, nil, fmt.Errorf("segment: header claims %d series, index %d", count, n)
	}
	// Each index entry costs at least 3 bytes (empty key, offset, count).
	if n > uint64(len(indexPayload)) {
		return hdr, nil, fmt.Errorf("segment: index claims %d entries in %d bytes", n, len(indexPayload))
	}
	out := make([]Series, 0, min(int(n), 4096))
	for i := uint64(0); i < n; i++ {
		keyLen, err := d.uvarint()
		if err != nil {
			return hdr, nil, err
		}
		key, err := d.bytes(int(keyLen))
		if err != nil {
			return hdr, nil, err
		}
		off, err := d.uvarint()
		if err != nil {
			return hdr, nil, err
		}
		cnt, err := d.uvarint()
		if err != nil {
			return hdr, nil, err
		}
		s, err := decodeSeriesBlock(data[:len(data)-segTrailerLen], off)
		if err != nil {
			return hdr, nil, fmt.Errorf("segment: series %q: %w", key, err)
		}
		if s.Key != string(key) || uint64(len(s.Times)) != cnt {
			return hdr, nil, fmt.Errorf("segment: index entry %q/%d disagrees with block %q/%d", key, cnt, s.Key, len(s.Times))
		}
		out = append(out, s)
	}
	return hdr, out, nil
}

// decodeSeriesBlock validates and decodes the series block at off.
func decodeSeriesBlock(data []byte, off uint64) (Series, error) {
	var s Series
	payload, err := readBlock(data, off)
	if err != nil {
		return s, err
	}
	d := &decoder{data: payload}
	keyLen, err := d.uvarint()
	if err != nil {
		return s, err
	}
	key, err := d.bytes(int(keyLen))
	if err != nil {
		return s, err
	}
	s.Key = string(key)
	cnt, err := d.uvarint()
	if err != nil {
		return s, err
	}
	tsLen, err := d.uvarint()
	if err != nil {
		return s, err
	}
	tsBytes, err := d.bytes(int(tsLen))
	if err != nil {
		return s, err
	}
	td := &decoder{data: tsBytes}
	s.Times, err = decodeTimesDoD(td, int(cnt))
	if err != nil {
		return s, err
	}
	if td.off != len(tsBytes) {
		return s, fmt.Errorf("segment: %d stray bytes after timestamps", len(tsBytes)-td.off)
	}
	s.Values, err = decodeValuesXOR(payload[d.off:], int(cnt))
	if err != nil {
		return s, err
	}
	return s, nil
}
