package wire

import (
	"bytes"
	"math"
	"testing"

	"cubefc/internal/f2db"
)

// FuzzDecodeFrame drives the full wire decoder — frame layer plus every
// payload codec — over arbitrary bytes. Properties checked:
//
//   - the decoder never panics and never over-reads (DecodeFrame's rest
//     slice stays inside the input);
//   - any payload the decoder accepts re-encodes to the exact bytes it was
//     decoded from (codec round-trip, the same canonical-form property the
//     SQL parser fuzzers check);
//   - a frame Reader.ReadFrame accepts from a stream matches DecodeFrame on
//     the same bytes, and WriteFrame re-frames it byte-identically;
//   - DecodeResult and the decoder it replaced (oracle_test.go) agree on
//     every RESULT payload: same accept/reject, same error text, same value.
//
// Seed corpus: testdata/fuzz/FuzzDecodeFrame (checked in; valid query,
// result, error and ping frames plus truncations).
func FuzzDecodeFrame(f *testing.F) {
	f.Add(AppendFrame(nil, TQuery, []byte("SELECT time, SUM(m) FROM facts AS OF now() + '2 steps'")))
	f.Add(AppendFrame(nil, TPing, nil))
	f.Add(AppendFrame(nil, TError, AppendError(nil, CodeQuery, "f2db: unknown attribute")))
	res := &f2db.Result{
		Forecast: true,
		Plan:     "direct",
		Groups: []f2db.Group{{
			Node:    3,
			NodeKey: "P1|C2",
			Member:  "C2",
			Rows:    []f2db.QueryRow{{T: 12, Value: 98.5, Lo: 90, Hi: 107}, {T: 13, Value: math.NaN()}},
		}},
	}
	full := AppendFrame(nil, TResult, AppendResult(nil, res))
	f.Add(full)
	f.Add(full[:len(full)-3]) // truncated mid-row
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00})
	apply := AppendFrame(nil, TApply, AppendApply(nil, 300, "INSERT INTO facts VALUES ('P1', 'C1', 1)"))
	f.Add(apply)
	f.Add(AppendFrame(nil, TApply, []byte{0x80}))                                 // truncated batch uvarint
	f.Add(AppendFrame(nil, TApply, append(bytes.Repeat([]byte{0x80}, 10), 0x01))) // overlong batch uvarint
	f.Add(AppendFrame(nil, TApply, AppendApply(nil, 7, "")))                      // empty SQL body

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, rest, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("rest grew: %d > %d", len(rest), len(data))
		}
		// ReadFrame over the same bytes must agree with DecodeFrame.
		rTyp, rPayload, rErr := NewReader(bytes.NewReader(data)).ReadFrame(nil)
		if rErr != nil || rTyp != typ || !bytes.Equal(rPayload, payload) {
			t.Fatalf("ReadFrame disagrees with DecodeFrame: %v %v vs %v", rErr, rTyp, typ)
		}
		// Re-framing the decoded frame reproduces its bytes, through the
		// reference encoder and through the production writer.
		frame := data[:len(data)-len(rest)]
		if got := AppendFrame(nil, typ, payload); !bytes.Equal(got, frame) {
			t.Fatalf("frame re-encode mismatch")
		}
		if got := frameBytes(t, typ, payload); !bytes.Equal(got, frame) {
			t.Fatalf("WriteFrame re-encode mismatch")
		}
		switch typ {
		case TResult:
			decoded, err := checkDecodeTwin(t, payload)
			if err != nil {
				return
			}
			// NaN bit patterns survive Float64bits round trips and
			// non-minimal uvarints are rejected, so an accepted payload
			// re-encodes byte-identically: a relay may pass it on unchanged.
			if re := AppendResult(nil, decoded); !bytes.Equal(re, payload) {
				t.Fatalf("result round trip diverges: %x → %x", payload, re)
			}
		case TApply:
			if batch, sql, err := DecodeApply(payload); err == nil {
				if got := AppendApply(nil, batch, string(sql)); !bytes.Equal(got, payload) {
					t.Fatalf("apply re-encode mismatch")
				}
			}
		case TError:
			if se, err := DecodeError(payload); err == nil {
				if got := AppendError(nil, se.Code, se.Message); !bytes.Equal(got, payload) {
					t.Fatalf("error re-encode mismatch")
				}
			}
		}
	})
}

// FuzzDecodeResult drives the result-decoder differential on bare RESULT
// payloads (no frame header to get past), seeded with the shapes the
// benchmark's hot set answers with: 1, 17 and 83 groups, and with payloads
// that decode under a lax reading but re-encode differently. It checks that
// an accepted payload re-encodes to its own bytes.
func FuzzDecodeResult(f *testing.F) {
	for _, groups := range []int{1, 17, 83} {
		payload := AppendResult(nil, shapedResult(groups, 3))
		f.Add(payload)
		f.Add(payload[:len(payload)/2])
	}
	f.Add(AppendResult(nil, sampleResult()))
	f.Add([]byte{1, 0, 1, 0, 0, 0, 0})
	f.Add(AppendResult(nil, &f2db.Result{Plan: "direct"})) // EXPLAIN: a plan, no groups
	f.Add([]byte{0, 0, 0})                                 // neither
	explain := AppendResult(nil, &f2db.Result{Plan: "direct"})
	f.Add(append([]byte{0x03}, explain[1:]...))          // an unknown flag bit
	f.Add(append([]byte{0, 0x86, 0x00}, explain[2:]...)) // plan length 6 in two bytes
	f.Add([]byte{0, 1, 'x', 0x80, 0x00})                 // zero groups in two bytes
	f.Fuzz(func(t *testing.T, payload []byte) {
		res, err := checkDecodeTwin(t, payload)
		if err != nil {
			return
		}
		// Accepted ⇒ AppendResult(nil, DecodeResult(p)) == p.
		if re := AppendResult(nil, res); !bytes.Equal(re, payload) {
			t.Fatalf("accepted payload re-encodes differently: %x → %x", payload, re)
		}
	})
}

// resultsEqual compares results treating NaN as equal to NaN (DeepEqual
// does not, and forecasts of degenerate models can legitimately carry NaN).
func resultsEqual(a, b *f2db.Result) bool {
	if a.Forecast != b.Forecast || a.Plan != b.Plan || len(a.Groups) != len(b.Groups) {
		return false
	}
	for i := range a.Groups {
		ga, gb := a.Groups[i], b.Groups[i]
		if ga.Node != gb.Node || ga.NodeKey != gb.NodeKey || ga.Member != gb.Member || len(ga.Rows) != len(gb.Rows) {
			return false
		}
		for j := range ga.Rows {
			if !rowEqual(ga.Rows[j], gb.Rows[j]) {
				return false
			}
		}
	}
	return true
}

func rowEqual(a, b f2db.QueryRow) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.T == b.T && eq(a.Value, b.Value) && eq(a.Lo, b.Lo) && eq(a.Hi, b.Hi)
}
