package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"cubefc/internal/f2db"
)

func sampleResult() *f2db.Result {
	groups := []f2db.Group{
		{
			Node:    7,
			NodeKey: "P1|R2",
			Member:  "R2",
			Rows: []f2db.QueryRow{
				{T: 36, Value: 123.5, Lo: 100.25, Hi: 150.75},
				{T: 37, Value: 130, Lo: 0, Hi: 0},
			},
		},
		{
			Node:    9,
			NodeKey: "P1|R3",
			Member:  "R3",
			Rows:    []f2db.QueryRow{{T: 36, Value: math.Inf(1)}},
		},
	}
	return &f2db.Result{
		Node:     groups[0].Node,
		NodeKey:  groups[0].NodeKey,
		Rows:     groups[0].Rows,
		Groups:   groups,
		Forecast: true,
		Plan:     "aggregation from [a, b] weight 1.000000",
	}
}

// frameBytes renders one frame through the production writer.
func frameBytes(t testing.TB, typ Type, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteFrame(w, typ, payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readOne reads the first frame of data through a fresh Reader.
func readOne(data []byte) (Type, []byte, error) {
	return NewReader(bytes.NewReader(data)).ReadFrame(nil)
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	payloads := [][]byte{nil, {}, []byte("SELECT 1"), bytes.Repeat([]byte{0xAB}, 4096), bytes.Repeat([]byte{0xCD}, 70_000)}
	types := []Type{TQuery, TExec, TPing, TStats, TResult, TError}
	for i, p := range payloads {
		// Even frames go out as []byte, odd ones as string: one header
		// encoder, two payload kinds.
		var err error
		if i%2 == 0 {
			err = WriteFrame(w, types[i%len(types)], p)
		} else {
			err = WriteFrameString(w, types[i%len(types)], string(p))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	var scratch []byte
	for i, p := range payloads {
		typ, got, err := r.ReadFrame(scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != types[i%len(types)] {
			t.Fatalf("frame %d: type %v, want %v", i, typ, types[i%len(types)])
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
		// Buffer ownership: a payload that fits the caller's buffer is
		// read into it, and Scratch drops a buffer grown past ScratchCap.
		if cap(scratch) >= len(p) && len(p) > 0 && &got[0] != &scratch[:1][0] {
			t.Fatalf("frame %d: %d-byte payload not read into the %d-byte buffer offered", i, len(p), cap(scratch))
		}
		if scratch = Scratch(got); cap(scratch) > ScratchCap {
			t.Fatalf("frame %d: Scratch kept %d bytes, cap is %d", i, cap(scratch), ScratchCap)
		}
	}
	if _, _, err := r.ReadFrame(scratch); err != io.EOF {
		t.Fatalf("expected io.EOF at stream end, got %v", err)
	}
}

// TestWriteFrameRejectsOversized: the size check runs before a byte is
// buffered, so the stream stays in sync for the next frame.
func TestWriteFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	big := make([]byte, MaxFrame)
	if err := WriteFrame(w, TQuery, big); err != ErrFrameTooLarge {
		t.Fatalf("WriteFrame: got %v, want ErrFrameTooLarge", err)
	}
	if err := WriteFrameString(w, TQuery, string(big)); err != ErrFrameTooLarge {
		t.Fatalf("WriteFrameString: got %v, want ErrFrameTooLarge", err)
	}
	if w.Buffered() != 0 || buf.Len() != 0 {
		t.Fatalf("rejected frame left %d buffered, %d written bytes", w.Buffered(), buf.Len())
	}
	if err := WriteFrame(w, TQuery, big[:MaxFrame-1]); err != nil {
		t.Fatalf("largest legal frame: %v", err)
	}
}

func TestDecodeFrameMatchesReadFrame(t *testing.T) {
	data := AppendFrame(nil, TQuery, []byte("SELECT time, SUM(m) FROM facts"))
	data = AppendFrame(data, TPong, nil)
	typ, payload, rest, err := DecodeFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	if typ != TQuery || string(payload) != "SELECT time, SUM(m) FROM facts" {
		t.Fatalf("decoded %v %q", typ, payload)
	}
	typ, payload, rest, err = DecodeFrame(rest)
	if err != nil || typ != TPong || len(payload) != 0 || len(rest) != 0 {
		t.Fatalf("second frame: %v %v %d %d", err, typ, len(payload), len(rest))
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, _, err := readOne(hdr[:]); err != ErrFrameTooLarge {
		t.Fatalf("oversized frame: got %v, want ErrFrameTooLarge", err)
	}
	binary.BigEndian.PutUint32(hdr[:], 0)
	if _, _, err := readOne(hdr[:]); err == nil {
		t.Fatal("zero-length frame accepted")
	}
}

func TestReadFrameTruncated(t *testing.T) {
	full := AppendFrame(nil, TQuery, []byte("SELECT"))
	for cut := 1; cut < len(full); cut++ {
		if _, _, err := readOne(full[:cut]); err != io.ErrUnexpectedEOF {
			t.Fatalf("truncation at %d: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	want := sampleResult()
	payload := AppendResult(nil, want)
	got, err := DecodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestDecodeResultRejectsJunk(t *testing.T) {
	valid := AppendResult(nil, sampleResult())
	// Every truncation must error, never panic.
	for cut := 0; cut < len(valid); cut++ {
		if _, err := DecodeResult(valid[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage is rejected too.
	if _, err := DecodeResult(append(append([]byte{}, valid...), 0x00)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// A hostile group count must not allocate gigabytes.
	hostile := []byte{0}         // flags
	hostile = append(hostile, 0) // empty plan
	hostile = binary.AppendUvarint(hostile, 1<<40)
	if _, err := DecodeResult(hostile); err == nil {
		t.Fatal("hostile group count accepted")
	}
}

func TestErrorRoundTrip(t *testing.T) {
	payload := AppendError(nil, CodeQuery, "f2db: no time series for X")
	se, err := DecodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if se.Code != CodeQuery || se.Message != "f2db: no time series for X" {
		t.Fatalf("decoded %+v", se)
	}
	if !strings.Contains(se.Error(), "server error 2") {
		t.Fatalf("Error() = %q", se.Error())
	}
	if _, err := DecodeError([]byte{0x01}); err == nil {
		t.Fatal("short error payload accepted")
	}
}

func TestInfoRoundTrip(t *testing.T) {
	for _, want := range []Info{
		{},
		{Nonce: 1, Inserts: 2, Batches: 3},
		{Nonce: math.MaxUint64, Inserts: 1 << 40, Batches: 12345},
	} {
		payload := AppendInfo(nil, want)
		got, err := DecodeInfo(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
		for cut := 0; cut < len(payload); cut++ {
			if _, err := DecodeInfo(payload[:cut]); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}
		if _, err := DecodeInfo(append(append([]byte{}, payload...), 0x00)); err == nil {
			t.Fatal("trailing bytes accepted")
		}
	}
}

func TestTypePredicates(t *testing.T) {
	for _, typ := range []Type{TQuery, TExec, TPing, TStats, TInfo} {
		if !typ.IsRequest() || typ.IsResponse() {
			t.Fatalf("%v misclassified", typ)
		}
	}
	for _, typ := range []Type{TResult, TOK, TPong, TStatsText, TInfoData, TError} {
		if typ.IsRequest() || !typ.IsResponse() {
			t.Fatalf("%v misclassified", typ)
		}
	}
	if Type(0x7F).IsRequest() || Type(0x7F).IsResponse() {
		t.Fatal("unknown type classified")
	}
	if Type(0x7F).String() == "" {
		t.Fatal("unknown type has empty String")
	}
}

// TestCheckResultCanonical: CheckResult and DecodeResult reject the two
// payloads a lax decoder accepts but AppendResult does not reproduce — an
// unknown flag bit and a uvarint with a redundant continuation byte — and
// accept their canonical forms.
func TestCheckResultCanonical(t *testing.T) {
	valid := AppendResult(nil, sampleResult())
	if err := CheckResult(valid); err != nil {
		t.Fatalf("canonical payload rejected: %v", err)
	}
	flags := append([]byte{valid[0] | 0x02}, valid[1:]...)
	long := append([]byte{valid[0]}, valid[1]|0x80, 0x00) // the plan length, padded to two bytes
	long = append(long, valid[2:]...)
	if valid[1] >= 0x80 {
		t.Fatalf("sample plan too long for the padding trick: %d", valid[1])
	}
	for name, p := range map[string][]byte{"flag bit": flags, "padded uvarint": long} {
		if err := CheckResult(p); !errors.Is(err, errNonCanonical) {
			t.Errorf("%s: CheckResult = %v, want %v", name, err, errNonCanonical)
		}
		if _, err := DecodeResult(p); !errors.Is(err, errNonCanonical) {
			t.Errorf("%s: DecodeResult = %v, want %v", name, err, errNonCanonical)
		}
	}
}
