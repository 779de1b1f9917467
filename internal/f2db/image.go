package f2db

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"cubefc/internal/cube"
	"cubefc/internal/segment"
)

// Image format. A configuration file (storage.go) and an engine snapshot
// (snapshot.go) are each a sequence of records in the WAL's framing
// (segment.AppendRecord: length, CRC-32C, type). The first is a
// segment.RecHeader record holding the image's magic and nothing else; the
// rest hold the image's items in order: recItems records the structure,
// recValues records the base series' values as raw float64s. Before each
// item the writer closes the open record when it has another type or holds
// imageChunk bytes, so no item is split across records and no record nears
// the 64 MiB record bound whatever the cube's size. Every integer is a
// uvarint, every float64 its IEEE-754 bits little-endian, and every string
// a uvarint length and its bytes.
//
// A change to what an image holds is a new magic: a reader refuses every
// magic but its own, naming the one it found, and names an image of the
// gob format earlier versions wrote "gob".

const (
	configMagic   = "F2CFG001"
	snapshotMagic = "F2SNP001"

	recItems  byte = 4
	recValues byte = 5

	imageChunk = 1 << 20
)

// imageWriter builds one image in memory.
type imageWriter struct {
	buf     []byte
	start   int    // frame offset of the open record, -1 when none is open
	scratch []byte // a key or a model, rendered before its length is known
}

func newImageWriter(magic string, sizeHint int) *imageWriter {
	w := &imageWriter{buf: make([]byte, 0, sizeHint), start: -1}
	w.buf = segment.AppendRecord(w.buf, segment.RecHeader, []byte(magic))
	return w
}

// begin starts an item in a record of type typ.
func (w *imageWriter) begin(typ byte) {
	if w.start >= 0 && (w.buf[w.start+segment.RecordHeaderSize-1] != typ || len(w.buf)-w.start >= imageChunk) {
		segment.FrameRecord(w.buf, w.start)
		w.start = -1
	}
	if w.start < 0 {
		w.start = len(w.buf)
		w.buf = append(w.buf, make([]byte, segment.RecordHeaderSize-1)...)
		w.buf = append(w.buf, typ)
	}
}

// finish frames the open record and returns the image.
func (w *imageWriter) finish() []byte {
	if w.start >= 0 {
		segment.FrameRecord(w.buf, w.start)
		w.start = -1
	}
	return w.buf
}

func (w *imageWriter) int(v int) { w.buf = binary.AppendUvarint(w.buf, uint64(v)) }

func (w *imageWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

func (w *imageWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *imageWriter) bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

func (w *imageWriter) str(s string) {
	w.buf = append(binary.AppendUvarint(w.buf, uint64(len(s))), s...)
}

func (w *imageWriter) bytes(b []byte) {
	w.buf = append(binary.AppendUvarint(w.buf, uint64(len(b))), b...)
}

// key writes node id's canonical key, the node's identity in an image.
func (w *imageWriter) key(g *cube.Graph, id int) {
	w.scratch = g.CoordOf(id).AppendKey(w.scratch[:0], g.Dims)
	w.bytes(w.scratch)
}

// imageReader decodes one image. The first error sticks: every later read
// returns a zero value, so a decoder checks once per item or section.
type imageReader struct {
	data []byte
	next int64  // offset of the next record
	typ  byte   // type of the current record
	p    []byte // unread payload of the current record
	err  error
}

// readImage reads a whole image from r, in one allocation when r reports
// its length.
func readImage(r io.Reader) ([]byte, error) {
	if l, ok := r.(interface{ Len() int }); ok {
		data := make([]byte, l.Len())
		_, err := io.ReadFull(r, data)
		return data, err
	}
	return io.ReadAll(r)
}

// openImage checks data's header record against magic; what names the
// image in errors.
func openImage(data []byte, magic, what string) (*imageReader, error) {
	typ, payload, next, err := segment.ReadRecord(data, 0)
	switch {
	case gobStream(data):
		return nil, fmt.Errorf("f2db: %s: format %q is not this version's %q", what, "gob", magic)
	case err != nil:
		return nil, fmt.Errorf("f2db: %s has no header record: %w", what, err)
	case typ != segment.RecHeader:
		return nil, fmt.Errorf("f2db: %s opens with a record of type %d, not a header", what, typ)
	case segment.Magic(data) != magic:
		return nil, fmt.Errorf("f2db: %s: format %q is not this version's %q", what, segment.Magic(data), magic)
	case len(payload) != len(magic):
		return nil, fmt.Errorf("f2db: %s: header of %d bytes", what, len(payload))
	}
	return &imageReader{data: data, next: next}, nil
}

// gobStream reports whether data opens like an encoding/gob stream: a
// message length, then a type definition, whose negative type id gob
// writes as an odd uint — for the ids a process assigns first, ff and one
// odd byte.
func gobStream(data []byte) bool {
	n := 1
	if len(data) > 0 && data[0] >= 0x80 {
		n += 256 - int(data[0]) // a length of that many big-endian bytes
	}
	return len(data) > n+1 && data[n] == 0xff && data[n+1]&1 == 1
}

func (r *imageReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// begin starts the next item, which belongs in a record of type typ,
// reading the next record when the current one is used up. It reports
// whether the reader is still without error.
func (r *imageReader) begin(typ byte) bool {
	if r.err != nil {
		return false
	}
	if len(r.p) == 0 {
		if r.next >= int64(len(r.data)) {
			r.fail("image ends early")
			return false
		}
		t, payload, next, err := segment.ReadRecord(r.data, r.next)
		if err != nil {
			r.err = err
			return false
		}
		if len(payload) == 0 {
			r.fail("empty record at offset %d", r.next)
			return false
		}
		r.typ, r.p, r.next = t, payload, next
	}
	if r.typ != typ {
		r.fail("a record of type %d where one of type %d belongs", r.typ, typ)
		return false
	}
	return true
}

// end checks that the image holds nothing after its last item.
func (r *imageReader) end() error {
	if r.err == nil && (len(r.p) > 0 || r.next != int64(len(r.data))) {
		r.fail("%d bytes after the image's last item", len(r.p)+len(r.data)-int(r.next))
	}
	return r.err
}

// left is the number of image bytes not yet read.
func (r *imageReader) left() int { return len(r.p) + len(r.data) - int(r.next) }

// take returns the next n bytes of the current item, aliasing the image.
func (r *imageReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.p) {
		r.fail("an item runs past the end of its record")
		return nil
	}
	b := r.p[:n]
	r.p = r.p[n:]
	return b
}

// int reads a uvarint that must fit an int.
func (r *imageReader) int() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.p)
	if n <= 0 || v > math.MaxInt {
		r.fail("malformed integer")
		return 0
	}
	r.p = r.p[n:]
	return int(v)
}

// count reads the number of things that follow, each at least size bytes
// long, so a count the image cannot hold is refused before it allocates.
func (r *imageReader) count(what string, size int) int {
	n := r.int()
	if n > r.left()/size {
		r.fail("%d %s in %d bytes", n, what, r.left())
		return 0
	}
	return n
}

func (r *imageReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *imageReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *imageReader) bool() bool {
	b := r.take(1)
	if b != nil && b[0] > 1 {
		r.fail("bool byte %d", b[0])
	}
	return b != nil && b[0] == 1
}

// bytes reads a string's bytes, aliasing the image.
func (r *imageReader) bytes() []byte { return r.take(r.count("string bytes", 1)) }

// node reads a canonical key and resolves it on g.
func (r *imageReader) node(g *cube.Graph) int {
	key := r.bytes()
	if r.err != nil {
		return 0
	}
	id, ok := g.LookupID(string(key))
	if !ok {
		r.fail("stored node %q not present in graph", key)
	}
	return id
}
