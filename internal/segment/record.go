package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// WAL record framing. Every record is
//
//	u32 LE  payload length
//	u32 LE  CRC-32C over (type byte ‖ payload)
//	u8      record type
//	bytes   payload
//
// The CRC covers the type so a flipped type byte is caught, and the length
// sits outside the CRC so a torn header is detected by the frame not
// parsing rather than by a misleading checksum. Readers treat a frame that
// does not fully fit in the remaining bytes as a torn tail (clean end of
// log when reading the active file) and a frame whose CRC mismatches as
// corruption; which of the two is tolerable is the caller's decision
// (wal.go: only the final, unsealed file may end torn).

const (
	recHeader byte = 1 // file header: magic, fingerprint, start generation, sequence
	recBatch  byte = 2 // one committed batch: generation, then its column
	recSeal   byte = 3 // clean end of a sealed file; nothing follows
)

// maxRecordSize bounds a single record's payload so a corrupt length field
// cannot drive allocation. 64 MiB holds a batch of ~4M base series.
const maxRecordSize = 64 << 20

// recordHeaderSize is the fixed frame prefix: length, CRC, type.
const recordHeaderSize = 4 + 4 + 1

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendRecord appends one framed record to buf and returns the extended
// slice.
func appendRecord(buf []byte, typ byte, payload []byte) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0, typ)
	buf = append(buf, payload...)
	frameRecord(buf, start)
	return buf
}

// frameRecord fills in the length and CRC of the record whose frame starts
// at start and whose payload runs to the end of buf, so a payload can be
// written in place behind its reserved frame (a batch's column).
func frameRecord(buf []byte, start int) {
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-recordHeaderSize))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(buf[start+8:], crcTable))
}

// errTorn marks a frame cut short by the end of the data — the shape a
// crashed append leaves behind. Callers reading the active WAL file treat
// it as the clean end of the log.
type tornError struct{ off int64 }

func (e *tornError) Error() string {
	return fmt.Sprintf("segment: torn record at offset %d", e.off)
}

// readRecord parses the record starting at off. It returns the record type,
// its payload (aliasing data), and the offset of the next record. A frame
// extending past the data yields a *tornError; a CRC or bounds violation
// yields a hard corruption error.
func readRecord(data []byte, off int64) (typ byte, payload []byte, next int64, err error) {
	if off < 0 || off > int64(len(data)) {
		return 0, nil, 0, fmt.Errorf("segment: record offset %d out of range", off)
	}
	rest := data[off:]
	if len(rest) < recordHeaderSize {
		return 0, nil, 0, &tornError{off: off}
	}
	n := binary.LittleEndian.Uint32(rest[0:4])
	if n > maxRecordSize {
		return 0, nil, 0, fmt.Errorf("segment: record at offset %d claims %d payload bytes (max %d)", off, n, maxRecordSize)
	}
	if int64(len(rest)) < recordHeaderSize+int64(n) {
		return 0, nil, 0, &tornError{off: off}
	}
	wantCRC := binary.LittleEndian.Uint32(rest[4:8])
	typ = rest[8]
	payload = rest[recordHeaderSize : recordHeaderSize+int64(n)]
	crc := crc32.Update(0, crcTable, rest[8:9])
	crc = crc32.Update(crc, crcTable, payload)
	if crc != wantCRC {
		return 0, nil, 0, fmt.Errorf("segment: record at offset %d: CRC mismatch (stored %08x, computed %08x)", off, wantCRC, crc)
	}
	return typ, payload, off + recordHeaderSize + int64(n), nil
}

// RecordBoundaries scans a WAL file image and returns the byte offset after
// every whole, CRC-valid record, in order. Scanning stops at the first torn
// or corrupt frame. The crash harness uses it to enumerate exactly the kill
// points the recovery suite must survive.
func RecordBoundaries(data []byte) []int64 {
	var bounds []int64
	off := int64(0)
	for off < int64(len(data)) {
		_, _, next, err := readRecord(data, off)
		if err != nil {
			break
		}
		bounds = append(bounds, next)
		off = next
	}
	return bounds
}

// Magic returns the format tag an image opens with: its header record's
// magic, or its first eight bytes when it does not open with a record (the
// per-series segments of earlier versions).
func Magic(data []byte) string {
	if typ, payload, _, err := readRecord(data, 0); err == nil && typ == recHeader && len(payload) >= 8 {
		return string(payload[:8])
	}
	return string(data[:min(8, len(data))])
}
