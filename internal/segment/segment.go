package segment

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Segment format. A segment is a sealed WAL span compacted into one file,
// in the WAL's own framing (record.go: u32 length ‖ u32 CRC-32C ‖ type ‖
// payload):
//
//	header   magic "F2SEG002", fingerprint, fromGen, toGen
//	column   ×(toGen−fromGen): one generation's batch, a little-endian
//	         float64 per base series in the database's base-ID order
//
// No series key is stored: as in the WAL, the fingerprint pins which base
// series each position holds. One version is read; an image of any other
// is refused. Every length is checked against the expected column width
// before anything is allocated, so the decoder never allocates more than
// the input describes — FuzzDecodeSegment holds it to that.

var segMagic = [8]byte{'F', '2', 'S', 'E', 'G', '0', '0', '2'}

// segHeaderLen is the header record's payload: magic, fingerprint,
// fromGen, toGen.
const segHeaderLen = 8 + 8 + 8 + 8

// Header identifies a segment: the cube fingerprint it belongs to and the
// half-open generation span [FromGen, ToGen) its columns cover.
type Header struct {
	Fingerprint uint64
	FromGen     uint64
	ToGen       uint64
}

// EncodeSegment renders a complete segment image. It takes the span the
// way the graph holds it, one history per base series (series[i] holds
// base i's values over [FromGen, ToGen)), and writes it the way the WAL
// and replay read it, one column per generation. The image is one
// allocation, sized up front.
func EncodeSegment(hdr Header, series [][]float64) ([]byte, error) {
	if hdr.ToGen < hdr.FromGen {
		return nil, fmt.Errorf("segment: span [%d,%d) ends before it starts", hdr.FromGen, hdr.ToGen)
	}
	if 8*uint64(len(series)) > maxRecordSize {
		return nil, fmt.Errorf("segment: a column of %d values exceeds the record bound", len(series))
	}
	gens := hdr.ToGen - hdr.FromGen
	for i, s := range series {
		if uint64(len(s)) != gens {
			return nil, fmt.Errorf("segment: series %d has %d values for span [%d,%d)", i, len(s), hdr.FromGen, hdr.ToGen)
		}
	}
	buf := make([]byte, 0, recordHeaderSize+segHeaderLen+int(gens)*(recordHeaderSize+8*len(series)))
	buf = append(buf, make([]byte, recordHeaderSize)...)
	buf[8] = recHeader
	buf = append(buf, segMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, hdr.Fingerprint)
	buf = binary.LittleEndian.AppendUint64(buf, hdr.FromGen)
	buf = binary.LittleEndian.AppendUint64(buf, hdr.ToGen)
	frameRecord(buf, 0)
	for g := range int(gens) {
		start := len(buf)
		buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0, recColumn)
		for _, s := range series {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s[g]))
		}
		frameRecord(buf, start)
	}
	return buf, nil
}

// DecodeSegment validates a segment image whose columns hold width values
// and returns its header and its columns, one per generation in order,
// sharing one backing array. Corrupt input of any shape — a torn or
// flipped record, a column of another width, a generation missing or
// extra, another format version — returns an error; it never panics.
func DecodeSegment(data []byte, width int) (Header, [][]float64, error) {
	var hdr Header
	if width < 0 || 8*uint64(width) > maxRecordSize {
		return hdr, nil, fmt.Errorf("segment: no record holds a column of %d values", width)
	}
	typ, payload, off, err := readRecord(data, 0)
	if err != nil {
		if len(data) >= 8 && string(data[:5]) == "F2SEG" {
			return hdr, nil, fmt.Errorf("segment: format %q is not this version's %q", data[:8], segMagic[:])
		}
		return hdr, nil, fmt.Errorf("segment: header: %w", err)
	}
	if typ != recHeader || len(payload) != segHeaderLen || string(payload[:8]) != string(segMagic[:]) {
		return hdr, nil, fmt.Errorf("segment: not a %q header", segMagic[:])
	}
	hdr.Fingerprint = binary.LittleEndian.Uint64(payload[8:])
	hdr.FromGen = binary.LittleEndian.Uint64(payload[16:])
	hdr.ToGen = binary.LittleEndian.Uint64(payload[24:])
	if hdr.ToGen < hdr.FromGen {
		return hdr, nil, fmt.Errorf("segment: span [%d,%d) ends before it starts", hdr.FromGen, hdr.ToGen)
	}
	colLen := uint64(recordHeaderSize + 8*width)
	rest := uint64(len(data)) - uint64(off)
	if gens := hdr.ToGen - hdr.FromGen; rest/colLen != gens || rest%colLen != 0 {
		return hdr, nil, fmt.Errorf("segment: span [%d,%d) wants %d columns of %d values, %d bytes follow the header",
			hdr.FromGen, hdr.ToGen, gens, width, rest)
	}
	cols := make([][]float64, hdr.ToGen-hdr.FromGen)
	vals := make([]float64, len(cols)*width)
	for g := range cols {
		typ, payload, off, err = readRecord(data, off)
		if err != nil {
			return hdr, nil, fmt.Errorf("segment: generation %d: %w", hdr.FromGen+uint64(g), err)
		}
		if typ != recColumn || len(payload) != 8*width {
			return hdr, nil, fmt.Errorf("segment: generation %d: record type %d of %d bytes, want a column of %d values",
				hdr.FromGen+uint64(g), typ, len(payload), width)
		}
		col := vals[g*width : (g+1)*width : (g+1)*width]
		for i := range col {
			col[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
		cols[g] = col
	}
	return hdr, cols, nil
}
