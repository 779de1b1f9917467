package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"cubefc/internal/f2db"
)

// This file holds the reference implementations the differential tests and
// fuzzers compare the production codec against: the one-allocation-per-field
// result decoder DecodeResult replaced (kept verbatim, renamed oracle*), and
// the pure-function frame codec (AppendFrame/DecodeFrame) that checks
// Reader.ReadFrame and WriteFrame from the other side.

// AppendFrame appends a complete frame to dst and returns the extended
// slice.
func AppendFrame(dst []byte, t Type, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(1+len(payload)))
	dst = append(dst, byte(t))
	return append(dst, payload...)
}

// DecodeFrame decodes one frame from a byte slice, returning the remainder
// after the frame. It is the pure-function twin of Reader.ReadFrame that
// the fuzzer drives.
func DecodeFrame(data []byte) (t Type, payload, rest []byte, err error) {
	if len(data) < 4 {
		return 0, nil, nil, io.ErrUnexpectedEOF
	}
	n := binary.BigEndian.Uint32(data[:4])
	if n == 0 {
		return 0, nil, nil, errEmptyFrame
	}
	if n > MaxFrame {
		return 0, nil, nil, ErrFrameTooLarge
	}
	if uint32(len(data)-4) < n {
		return 0, nil, nil, io.ErrUnexpectedEOF
	}
	body := data[4 : 4+n]
	return Type(body[0]), body[1:], data[4+n:], nil
}

// oracleDecoder walks a Result payload.
type oracleDecoder struct {
	buf []byte
}

func (d *oracleDecoder) byte() (byte, error) {
	if len(d.buf) < 1 {
		return 0, errShortPayload
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b, nil
}

func (d *oracleDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, errShortPayload
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *oracleDecoder) count(min int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	// Reject counts that cannot fit in the remaining bytes so a hostile
	// payload cannot force a huge allocation.
	if min > 0 && v > uint64(len(d.buf)/min) {
		return 0, errShortPayload
	}
	return int(v), nil
}

func (d *oracleDecoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.buf)) {
		return "", errShortPayload
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s, nil
}

func (d *oracleDecoder) float() (float64, error) {
	if len(d.buf) < 8 {
		return 0, errShortPayload
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.buf[:8]))
	d.buf = d.buf[8:]
	return v, nil
}

// oracleDecodeResult is the decoder DecodeResult replaced: one string per
// key and member, one Rows slice per group.
func oracleDecodeResult(payload []byte) (*f2db.Result, error) {
	d := &oracleDecoder{buf: payload}
	flags, err := d.byte()
	if err != nil {
		return nil, err
	}
	res := &f2db.Result{Forecast: flags&resultFlagForecast != 0}
	if res.Plan, err = d.str(); err != nil {
		return nil, err
	}
	numGroups, err := d.count(minGroupEnc)
	if err != nil {
		return nil, err
	}
	if numGroups == 0 && res.Plan == "" {
		return nil, errors.New("wire: result with zero groups")
	}
	res.Groups = make([]f2db.Group, 0, numGroups)
	for i := 0; i < numGroups; i++ {
		var grp f2db.Group
		node, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		grp.Node = int(node)
		if grp.NodeKey, err = d.str(); err != nil {
			return nil, err
		}
		if grp.Member, err = d.str(); err != nil {
			return nil, err
		}
		numRows, err := d.count(minRowEnc)
		if err != nil {
			return nil, err
		}
		grp.Rows = make([]f2db.QueryRow, numRows)
		for j := range grp.Rows {
			t, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			grp.Rows[j].T = int(t)
			if grp.Rows[j].Value, err = d.float(); err != nil {
				return nil, err
			}
			if grp.Rows[j].Lo, err = d.float(); err != nil {
				return nil, err
			}
			if grp.Rows[j].Hi, err = d.float(); err != nil {
				return nil, err
			}
		}
		res.Groups = append(res.Groups, grp)
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after result", len(d.buf))
	}
	if numGroups > 0 {
		res.Node = res.Groups[0].Node
		res.NodeKey = res.Groups[0].NodeKey
		res.Rows = res.Groups[0].Rows
	}
	return res, nil
}
