// Package wire defines the F²DB client/server protocol: a length-prefixed
// framed binary encoding carried over any byte stream (in practice TCP).
// Both ends of the connection — internal/server and internal/fclient —
// speak exactly this package, so the codec lives in neither.
//
// Frame layout (all integers big-endian):
//
//	uint32  length   // length of everything after this field: type + payload
//	byte    type     // message type, see the T* constants
//	[]byte  payload  // type-specific body, may be empty
//
// A frame body is capped at MaxFrame; a peer announcing a larger frame is
// protocol-broken and the connection is torn down rather than resynced.
// Responses on a connection are delivered strictly in request order, which
// is what makes client-side pipelining (many requests in flight on one
// connection) possible without request IDs.
//
// Payload encodings are deliberately primitive — uvarints for counts and
// IDs, length-prefixed UTF-8 for strings, IEEE-754 bits for measures — so
// the decoder is small enough to fuzz exhaustively (FuzzDecodeFrame).
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"cubefc/internal/f2db"
)

// MaxFrame bounds the frame body (type byte + payload). 16 MiB comfortably
// holds the largest drill-down result while keeping a malicious length
// prefix from ballooning server memory.
const MaxFrame = 1 << 24

// Type identifies a message. Requests have the high bit clear, responses
// have it set; TError may answer any request.
type Type byte

// Request types.
const (
	// TQuery carries a SELECT statement (payload: SQL text) and is
	// answered by TResult or TError. Queries are idempotent: clients may
	// retry them on a fresh connection.
	TQuery Type = 0x01
	// TExec carries an INSERT statement (payload: SQL text) and is
	// answered by TOK or TError. Execs are NOT idempotent (a duplicate
	// insert in the same batch is an error), so clients must not blindly
	// retry them.
	TExec Type = 0x02
	// TPing (payload echoed verbatim) probes liveness; answered by TPong.
	TPing Type = 0x03
	// TStats requests the engine counter snapshot; answered by TStatsText
	// (payload: the Metrics string rendering).
	TStats Type = 0x04
	// TInfo requests the engine's insert and batch counters; answered by
	// TInfoData. The batch count is a shard's position (internal/coord).
	TInfo Type = 0x05
	// TApply carries the INSERT of one whole time point and the batch it
	// completes (AppendApply); answered by TOK (held or applied) or TError
	// (a gap). Idempotent: clients may retry it.
	TApply Type = 0x06
)

// Response types.
const (
	TResult    Type = 0x81
	TOK        Type = 0x82
	TPong      Type = 0x83
	TStatsText Type = 0x84
	TInfoData  Type = 0x85
	TError     Type = 0xE0
)

// IsRequest reports whether t is a request type a server should accept.
func (t Type) IsRequest() bool {
	switch t {
	case TQuery, TExec, TPing, TStats, TInfo, TApply:
		return true
	}
	return false
}

// IsResponse reports whether t is a response type a client should accept.
func (t Type) IsResponse() bool {
	switch t {
	case TResult, TOK, TPong, TStatsText, TInfoData, TError:
		return true
	}
	return false
}

// String names the type for logs and errors.
func (t Type) String() string {
	switch t {
	case TQuery:
		return "QUERY"
	case TExec:
		return "EXEC"
	case TPing:
		return "PING"
	case TStats:
		return "STATS"
	case TInfo:
		return "INFO"
	case TApply:
		return "APPLY"
	case TResult:
		return "RESULT"
	case TOK:
		return "OK"
	case TPong:
		return "PONG"
	case TStatsText:
		return "STATS_TEXT"
	case TInfoData:
		return "INFO_DATA"
	case TError:
		return "ERROR"
	}
	return fmt.Sprintf("wire.Type(0x%02x)", byte(t))
}

// Error codes carried by TError payloads.
const (
	// CodeBadRequest: the frame was well-formed but the request was not
	// (unknown type, malformed payload).
	CodeBadRequest uint16 = 1
	// CodeQuery: the engine rejected the statement (parse error, unknown
	// node, duplicate insert, ...). The request WAS processed.
	CodeQuery uint16 = 2
	// CodeTimeout: the per-request timeout elapsed before the engine
	// answered. The request may still take effect server-side.
	CodeTimeout uint16 = 3
	// CodeShutdown: the server is draining and no longer accepts work.
	CodeShutdown uint16 = 4
	// CodeTooLarge: the response exceeded MaxFrame.
	CodeTooLarge uint16 = 5
)

// ServerError is a decoded TError response: the server processed (or
// explicitly rejected) the request, so it is NOT a transport failure and
// clients must not retry it on a new connection.
type ServerError struct {
	Code    uint16
	Message string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("f2db server error %d: %s", e.Code, e.Message)
}

// Frame-level errors.
var (
	// ErrFrameTooLarge reports a length prefix above MaxFrame (or zero,
	// which cannot hold the type byte).
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	errEmptyFrame    = errors.New("wire: zero-length frame")
	errShortPayload  = errors.New("wire: truncated payload")
	// errNonCanonical: a payload its encoder would not reproduce.
	errNonCanonical = errors.New("wire: non-canonical encoding")
)

// ScratchCap bounds the capacity a connection keeps in a reusable frame or
// response buffer between requests: one multi-megabyte statement or answer
// must not pin that much per connection for the connection's life.
const ScratchCap = 64 << 10

// Scratch empties buf for reuse, dropping it once it has grown past
// ScratchCap. Callers apply it after the last use of the buffer's bytes.
func Scratch(buf []byte) []byte {
	if cap(buf) > ScratchCap {
		return nil
	}
	return buf[:0]
}

// writeHeader starts a frame of n payload bytes, the first of them head.
// The header and head are built in w's own free space, so nothing escapes
// per frame.
func writeHeader(w *bufio.Writer, t Type, head []byte, n int) error {
	if 1+n > MaxFrame {
		return ErrFrameTooLarge
	}
	hdr := binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(1+n))
	_, err := w.Write(append(append(hdr, byte(t)), head...))
	return err
}

// WriteFrame buffers one frame in w; the caller decides when to Flush, which
// is what lets a burst of pipelined frames leave in one write. A payload
// over MaxFrame is rejected before a byte is buffered.
func WriteFrame(w *bufio.Writer, t Type, payload []byte) error {
	err := writeHeader(w, t, nil, len(payload))
	if err == nil {
		_, err = w.Write(payload)
	}
	return err
}

// WriteFrameString is WriteFrame for a payload held as a string (SQL text)
// after a short head (a TApply's batch number, or nil; a stack array may
// hold it). The payload goes in pieces that fit w's buffer: a larger write
// makes bufio assert io.StringWriter, whose cache the runtime allocates at
// random.
func WriteFrameString(w *bufio.Writer, t Type, head []byte, payload string) error {
	err := writeHeader(w, t, head, len(head)+len(payload))
	for err == nil && len(payload) > 0 {
		if w.Available() == 0 {
			err = w.Flush()
			continue
		}
		n := min(len(payload), w.Available())
		_, err = w.WriteString(payload[:n])
		payload = payload[n:]
	}
	return err
}

// Reader reads frames from a stream through one bufio.Reader, so a burst of
// pipelined frames costs one read.
type Reader struct {
	br  *bufio.Reader
	hdr [5]byte
}

// NewReader returns a frame reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{br: bufio.NewReader(r)} }

// Buffered reports how many bytes are read from the stream but not yet
// consumed: non-zero means the peer has a further frame (or its start)
// already in hand.
func (r *Reader) Buffered() int { return r.br.Buffered() }

// ReadFrame reads one frame, returning its type and payload. The payload is
// read into buf's capacity when it fits and freshly allocated when not;
// either way the caller owns it, and it stays valid until the caller hands
// it (or a slice of it) to the next ReadFrame. io.EOF is returned unwrapped
// when the stream ends cleanly between frames; a stream ending mid-frame
// yields io.ErrUnexpectedEOF.
func (r *Reader) ReadFrame(buf []byte) (Type, []byte, error) {
	if _, err := io.ReadFull(r.br, r.hdr[:4]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(r.hdr[:4])
	if n == 0 {
		return 0, nil, errEmptyFrame
	}
	if n > MaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	n-- // the type byte is read with the header; buf holds the payload alone
	if int(n) > cap(buf) {
		buf = make([]byte, n)
	}
	_, err := io.ReadFull(r.br, r.hdr[4:])
	if err == nil {
		_, err = io.ReadFull(r.br, buf[:n])
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return 0, nil, err
	}
	return Type(r.hdr[4]), buf[:n], nil
}

// --- payload codecs ------------------------------------------------------

// appendString appends a uvarint length-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendError encodes a TError payload: uint16 code + message text.
func AppendError(dst []byte, code uint16, msg string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, code)
	return append(dst, msg...)
}

// DecodeError decodes a TError payload.
func DecodeError(payload []byte) (*ServerError, error) {
	if len(payload) < 2 {
		return nil, errShortPayload
	}
	return &ServerError{
		Code:    binary.BigEndian.Uint16(payload[:2]),
		Message: string(payload[2:]),
	}, nil
}

// Info is a decoded TInfoData payload: one engine's progress.
type Info struct {
	// Inserts is the number of base-series values the engine has accepted;
	// snapshots keep it.
	Inserts uint64
	// Batches is the number of completed batch advances — the time points
	// the engine holds beyond its data set. Snapshots keep it and WAL replay
	// restores it, so it is a shard's position in a coordinator's log.
	Batches uint64
}

// AppendInfo encodes a TInfoData payload.
func AppendInfo(dst []byte, in Info) []byte {
	dst = binary.AppendUvarint(dst, in.Inserts)
	return binary.AppendUvarint(dst, in.Batches)
}

// DecodeInfo decodes a TInfoData payload.
func DecodeInfo(payload []byte) (Info, error) {
	var in Info
	rest := payload
	for _, dst := range []*uint64{&in.Inserts, &in.Batches} {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return Info{}, errShortPayload
		}
		*dst = v
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return Info{}, fmt.Errorf("wire: %d trailing bytes after info", len(rest))
	}
	return in, nil
}

// AppendApply encodes a TApply payload: the batch number as a uvarint, then
// the INSERT statement holding the whole time point.
func AppendApply(dst []byte, batch uint64, sql string) []byte {
	return append(binary.AppendUvarint(dst, batch), sql...)
}

// DecodeApply decodes a TApply payload: a canonical uvarint, then a
// statement that aliases payload.
func DecodeApply(payload []byte) (batch uint64, sql []byte, err error) {
	d := resultDecoder{buf: payload}
	if batch, err = d.uvarint(); err == nil && len(d.buf) == 0 {
		err = errShortPayload
	}
	return batch, d.buf, err
}

// Result payload layout:
//
//	byte    flags            // bit 0: Forecast; the other bits are zero
//	string  plan             // uvarint len + bytes, may be empty
//	uvarint numGroups        // >= 1, or 0 with a non-empty plan (EXPLAIN)
//	per group:
//	  uvarint node
//	  string  nodeKey
//	  string  member
//	  uvarint numRows
//	  per row: uvarint t, float64 value, float64 lo, float64 hi
//
// Every uvarint is minimal, as binary.AppendUvarint writes it, so a payload
// has one encoding and a relay may pass it on unchanged.
// Result.Node/NodeKey/Rows (the first-group conveniences) are not encoded;
// DecodeResult reconstructs them from Groups[0]. A result without groups is
// an EXPLAIN answer: valid exactly when it carries a plan.
const (
	resultFlagForecast = 1 << 0

	// minGroupEnc / minRowEnc are the smallest possible encodings of a
	// group and a row; the decoder uses them to reject count fields that
	// could not possibly fit in the remaining payload before allocating.
	minGroupEnc = 4  // node(1) + keyLen(1) + memberLen(1) + numRows(1)
	minRowEnc   = 25 // t(1) + 3×float64(24)
)

// AppendResult encodes a query result.
func AppendResult(dst []byte, r *f2db.Result) []byte {
	var flags byte
	if r.Forecast {
		flags |= resultFlagForecast
	}
	dst = append(dst, flags)
	dst = appendString(dst, r.Plan)
	dst = binary.AppendUvarint(dst, uint64(len(r.Groups)))
	for _, grp := range r.Groups {
		dst = binary.AppendUvarint(dst, uint64(grp.Node))
		dst = appendString(dst, grp.NodeKey)
		dst = appendString(dst, grp.Member)
		dst = binary.AppendUvarint(dst, uint64(len(grp.Rows)))
		for _, row := range grp.Rows {
			dst = binary.AppendUvarint(dst, uint64(row.T))
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(row.Value))
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(row.Lo))
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(row.Hi))
		}
	}
	return dst
}

// resultDecoder walks a Result payload. DecodeResult runs it twice over the
// same bytes: a sizing pass that validates everything and totals the string
// bytes and rows, then a filling pass (fill set) that carves every string
// out of one slab and every Rows slice out of another.
type resultDecoder struct {
	buf      []byte
	fill     bool
	strBytes int             // sizing pass: total bytes of plan, keys and members
	strs     strings.Builder // filling pass: the string slab, grown once
}

func (d *resultDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, errShortPayload
	}
	if n > 1 && d.buf[n-1] == 0 { // AppendUvarint stops a byte earlier
		return 0, errNonCanonical
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *resultDecoder) count(min int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	// Reject counts that cannot fit in the remaining bytes so a hostile
	// payload cannot force a huge allocation.
	if v > uint64(len(d.buf)/min) {
		return 0, errShortPayload
	}
	return int(v), nil
}

func (d *resultDecoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.buf)) {
		return "", errShortPayload
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	if !d.fill {
		d.strBytes += len(b)
		return "", nil
	}
	// The slab never reallocates after its one Grow, so a substring of it
	// taken now stays valid as later strings are appended.
	start := d.strs.Len()
	d.strs.Write(b)
	return d.strs.String()[start:], nil
}

// walk decodes one whole payload and returns its group and row totals. The
// filling pass also stores into res.Groups (already sized) and hands each
// group its rows as a capacity-capped slice of rows, so an append to one
// group's Rows cannot reach its neighbour's.
func (d *resultDecoder) walk(res *f2db.Result, rows []f2db.QueryRow) (numGroups, numRows int, err error) {
	if len(d.buf) < 1 {
		return 0, 0, errShortPayload
	}
	if d.buf[0]&^resultFlagForecast != 0 {
		return 0, 0, errNonCanonical
	}
	res.Forecast = d.buf[0]&resultFlagForecast != 0
	d.buf = d.buf[1:]
	planLen, _ := binary.Uvarint(d.buf) // validated by str
	if res.Plan, err = d.str(); err != nil {
		return 0, 0, err
	}
	if numGroups, err = d.count(minGroupEnc); err != nil {
		return 0, 0, err
	}
	// Only an EXPLAIN answer has no groups, and it has a plan.
	if numGroups == 0 && planLen == 0 {
		return 0, 0, errors.New("wire: result with zero groups")
	}
	for i := 0; i < numGroups; i++ {
		var grp f2db.Group
		node, err := d.uvarint()
		if err != nil {
			return 0, 0, err
		}
		grp.Node = int(node)
		if grp.NodeKey, err = d.str(); err != nil {
			return 0, 0, err
		}
		if grp.Member, err = d.str(); err != nil {
			return 0, 0, err
		}
		n, err := d.count(minRowEnc)
		if err != nil {
			return 0, 0, err
		}
		if d.fill {
			grp.Rows = rows[numRows : numRows+n : numRows+n]
			res.Groups[i] = grp
		}
		numRows += n
		for j := 0; j < n; j++ {
			t, err := d.uvarint()
			if err == nil && len(d.buf) < 24 {
				err = errShortPayload
			}
			if err != nil {
				return 0, 0, err
			}
			if d.fill {
				grp.Rows[j] = f2db.QueryRow{
					T:     int(t),
					Value: math.Float64frombits(binary.BigEndian.Uint64(d.buf)),
					Lo:    math.Float64frombits(binary.BigEndian.Uint64(d.buf[8:])),
					Hi:    math.Float64frombits(binary.BigEndian.Uint64(d.buf[16:])),
				}
			}
			d.buf = d.buf[24:]
		}
	}
	if len(d.buf) != 0 {
		return 0, 0, fmt.Errorf("wire: %d trailing bytes after result", len(d.buf))
	}
	return numGroups, numRows, nil
}

// CheckResult validates a TResult payload without allocating. It accepts
// exactly what DecodeResult accepts: the payloads p that
// AppendResult(nil, DecodeResult(p)) reproduces byte for byte.
func CheckResult(payload []byte) error {
	var scratch f2db.Result
	d := resultDecoder{buf: payload}
	_, _, err := d.walk(&scratch, nil)
	return err
}

// DecodeResult decodes a TResult payload into four objects whatever the
// group count: the Result, its []Group, one string slab holding the plan,
// key and member bytes (and nothing of the payload's numeric part, so a
// retained Result does not pin it) and one []QueryRow slab. The payload is
// not referenced after return.
func DecodeResult(payload []byte) (*f2db.Result, error) {
	var scratch f2db.Result
	size := resultDecoder{buf: payload}
	numGroups, numRows, err := size.walk(&scratch, nil)
	if err != nil {
		return nil, err
	}
	d := resultDecoder{buf: payload, fill: true}
	d.strs.Grow(size.strBytes)
	res := &f2db.Result{Groups: make([]f2db.Group, numGroups)}
	if _, _, err := d.walk(res, make([]f2db.QueryRow, numRows)); err != nil {
		return nil, err
	}
	if numGroups > 0 {
		res.Node = res.Groups[0].Node
		res.NodeKey = res.Groups[0].NodeKey
		res.Rows = res.Groups[0].Rows
	}
	return res, nil
}
