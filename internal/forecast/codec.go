package forecast

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Binary model codec, the model table of the F²DB configuration storage
// (Section V). A model encodes as its family tag followed by its parameter
// and state fields in declaration order, fixed width and little-endian:
// a float64 as its IEEE-754 bits, an int as an int64, a bool as one byte 0
// or 1, a slice as an int64 length and its elements. Fit-time scratch is not
// state and is not written. DecodeModel accepts exactly the bytes
// AppendBinary writes for a state Forecast and Update can run on, so an
// accepted input re-encodes to itself.

// maxCount bounds a decoded observation count: no series is this long,
// and a count this far below the int range cannot overflow the season
// index arithmetic of Forecast and Update.
const maxCount = 1 << 40

// Family tags, the first byte of an encoded model.
const (
	tagNaive byte = 1 + iota
	tagSES
	tagHolt
	tagHoltWinters
	tagTheta
)

func appendF64s(b []byte, vs ...float64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func appendInt(b []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendFloats(b []byte, vs []float64) []byte {
	return appendF64s(appendInt(b, len(vs)), vs...)
}

// AppendBinary implements Model.
func (m *Naive) AppendBinary(b []byte) ([]byte, error) {
	return appendBool(appendF64s(append(b, tagNaive), m.Last, m.ResidStd), m.IsFitted), nil
}

func (m *Naive) decode(d *decoder) {
	m.Last, m.ResidStd, m.IsFitted = d.f64(), d.f64(), d.bool()
}

// AppendBinary implements Model.
func (m *SES) AppendBinary(b []byte) ([]byte, error) {
	return m.appendFields(append(b, tagSES)), nil
}

func (m *SES) appendFields(b []byte) []byte {
	return appendBool(appendF64s(b, m.Alpha, m.Level, m.ResidStd), m.IsFitted)
}

func (m *SES) decode(d *decoder) {
	m.Alpha, m.Level, m.ResidStd, m.IsFitted = d.f64(), d.f64(), d.f64(), d.bool()
}

// AppendBinary implements Model.
func (m *Holt) AppendBinary(b []byte) ([]byte, error) {
	b = appendBool(appendF64s(append(b, tagHolt), m.Alpha, m.Beta, m.Phi), m.Damped)
	return appendBool(appendF64s(b, m.Level, m.Trend, m.ResidStd), m.IsFitted), nil
}

func (m *Holt) decode(d *decoder) {
	m.Alpha, m.Beta, m.Phi, m.Damped = d.f64(), d.f64(), d.f64(), d.bool()
	m.Level, m.Trend, m.ResidStd, m.IsFitted = d.f64(), d.f64(), d.f64(), d.bool()
}

// AppendBinary implements Model.
func (m *HoltWinters) AppendBinary(b []byte) ([]byte, error) {
	b = appendInt(append(b, tagHoltWinters), m.Period)
	b = appendF64s(appendInt(b, int(m.Mode)), m.Alpha, m.Beta, m.Gamma, m.Level, m.Trend)
	b = appendInt(appendFloats(b, m.Season), m.T)
	return appendBool(appendF64s(b, m.ResidStd), m.IsFitted), nil
}

// decode refuses a state Forecast or Update cannot run on: a period below
// 1 (the season index divides by it), a seasonal state of another length
// than the period, or an observation count out of range.
func (m *HoltWinters) decode(d *decoder) {
	m.Period = d.integer()
	if mode := d.integer(); mode == int(Additive) || mode == int(Multiplicative) {
		m.Mode = SeasonMode(mode)
	} else {
		d.fail(fmt.Errorf("forecast: hw season mode %d", mode))
	}
	m.Alpha, m.Beta, m.Gamma, m.Level, m.Trend = d.f64(), d.f64(), d.f64(), d.f64(), d.f64()
	m.Season = d.floats()
	m.T, m.ResidStd, m.IsFitted = d.integer(), d.f64(), d.bool()
	switch {
	case d.err != nil:
	case m.Period < 1:
		d.fail(fmt.Errorf("forecast: hw period %d", m.Period))
	case len(m.Season) != m.Period:
		d.fail(fmt.Errorf("forecast: hw seasonal state of %d values for period %d", len(m.Season), m.Period))
	case m.T < 0 || m.T > maxCount:
		d.fail(fmt.Errorf("forecast: hw observation count %d", m.T))
	}
}

// AppendBinary implements Model. An unfitted Theta model has no SES state
// to forecast from and cannot be encoded.
func (m *Theta) AppendBinary(b []byte) ([]byte, error) {
	if m.SES == nil {
		return b, errors.New("forecast: encoding a theta model without its SES state")
	}
	b = m.SES.appendFields(appendF64s(appendInt(append(b, tagTheta), m.Period), m.Intercept, m.Slope))
	b = appendInt(appendFloats(b, m.Seasonal), m.N)
	return appendBool(appendF64s(b, m.ResidStd), m.IsFitted), nil
}

// decode refuses a period below 1, a seasonal profile that is neither
// empty nor one value per phase, and an observation count out of range.
func (m *Theta) decode(d *decoder) {
	m.Period, m.Intercept, m.Slope = d.integer(), d.f64(), d.f64()
	m.SES = new(SES)
	m.SES.decode(d)
	m.Seasonal = d.floats()
	m.N, m.ResidStd, m.IsFitted = d.integer(), d.f64(), d.bool()
	switch {
	case d.err != nil:
	case m.Period < 1:
		d.fail(fmt.Errorf("forecast: theta period %d", m.Period))
	case len(m.Seasonal) != 0 && len(m.Seasonal) != m.Period:
		d.fail(fmt.Errorf("forecast: theta seasonal profile of %d values for period %d", len(m.Seasonal), m.Period))
	case m.N < 0 || m.N > maxCount:
		d.fail(fmt.Errorf("forecast: theta observation count %d", m.N))
	}
}

// DecodeModel decodes a model AppendBinary encoded. The model shares no
// memory with data.
func DecodeModel(data []byte) (Model, error) {
	if len(data) == 0 {
		return nil, errors.New("forecast: decoding a model: no bytes")
	}
	d := &decoder{b: data[1:]}
	var m interface {
		Model
		decode(*decoder)
	}
	switch data[0] {
	case tagNaive:
		m = new(Naive)
	case tagSES:
		m = new(SES)
	case tagHolt:
		m = new(Holt)
	case tagHoltWinters:
		m = new(HoltWinters)
	case tagTheta:
		m = new(Theta)
	default:
		return nil, fmt.Errorf("forecast: decoding a model: unknown family tag %d", data[0])
	}
	m.decode(d)
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("forecast: %d bytes after the model", len(d.b))
	}
	if d.err != nil {
		return nil, fmt.Errorf("forecast: decoding a %s model: %w", m.Name(), d.err)
	}
	return m, nil
}

// decoder reads the fields of one encoded model. The first error sticks;
// every later read returns a zero value.
type decoder struct {
	b   []byte
	err error
}

var errShort = errors.New("forecast: model bytes end early")

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail(errShort)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) integer() int {
	v := int64(d.u64())
	if int64(int(v)) != v {
		d.fail(fmt.Errorf("forecast: integer %d out of range", v))
		return 0
	}
	return int(v)
}

func (d *decoder) bool() bool {
	if d.err != nil || len(d.b) < 1 {
		d.fail(errShort)
		return false
	}
	v := d.b[0]
	d.b = d.b[1:]
	if v > 1 {
		d.fail(fmt.Errorf("forecast: bool byte %d", v))
	}
	return v == 1
}

// floats reads a length-prefixed slice, checking the length against the
// bytes left before it allocates. An empty slice decodes as nil.
func (d *decoder) floats() []float64 {
	n := d.integer()
	if d.err != nil || n == 0 {
		return nil
	}
	if n < 0 || n > len(d.b)/8 {
		d.fail(fmt.Errorf("forecast: %d values with %d bytes left", n, len(d.b)))
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}
