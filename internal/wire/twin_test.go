package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cubefc/internal/f2db"
)

// shapedResult builds a drill-down answer of the given group count with
// rows rows per group — the 1 / 17 / 83-group shapes of the benchmark's hot
// set when rows is 3.
func shapedResult(groups, rows int) *f2db.Result {
	res := &f2db.Result{Forecast: true, Plan: "aggregation from [a, b] weight 1.000000"}
	for i := 0; i < groups; i++ {
		grp := f2db.Group{Node: 100 + i, NodeKey: fmt.Sprintf("d0l1_%d|*", i), Member: fmt.Sprintf("d0l1_%d", i)}
		grp.Rows = make([]f2db.QueryRow, rows)
		for j := range grp.Rows {
			v := float64(i*rows + j)
			grp.Rows[j] = f2db.QueryRow{T: 36 + j, Value: v, Lo: v - 1, Hi: v + 1}
		}
		res.Groups = append(res.Groups, grp)
	}
	res.Node, res.NodeKey, res.Rows = res.Groups[0].Node, res.Groups[0].NodeKey, res.Groups[0].Rows
	return res
}

// checkDecodeTwin decodes payload with DecodeResult and with the decoder it
// replaced and fails the test on any difference: accept/reject, error text,
// or decoded value. It returns DecodeResult's outcome.
func checkDecodeTwin(t testing.TB, payload []byte) (*f2db.Result, error) {
	t.Helper()
	in := append([]byte(nil), payload...)
	got, err := DecodeResult(payload)
	want, wantErr := oracleDecodeResult(payload)
	if !bytes.Equal(in, payload) {
		t.Fatalf("decoder wrote into its input")
	}
	if cerr := CheckResult(payload); (cerr == nil) != (err == nil) || (err != nil && cerr.Error() != err.Error()) {
		t.Fatalf("CheckResult says %v, DecodeResult %v (payload %x)", cerr, err, payload)
	}
	if errors.Is(err, errNonCanonical) {
		// The oracle predates canonical form, so it reads on past the first
		// non-canonical field: it may reject later for another reason, or
		// accept a payload whose re-encoding changes the bytes.
		if wantErr == nil && bytes.Equal(AppendResult(nil, want), payload) {
			t.Fatalf("canonical payload rejected as non-canonical: %x", payload)
		}
		return nil, err
	}
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("accept/reject differs: got %v, oracle %v (payload %x)", err, wantErr, payload)
	}
	if err != nil {
		if got != nil {
			t.Fatalf("rejected payload still returned a result")
		}
		return nil, err
	}
	// DeepEqual is the contract; it calls NaN unequal to itself, so a
	// payload carrying NaN is compared field by field on float bits instead
	// (resultsEqual) plus the first-group conveniences and slice nil-ness.
	if !reflect.DeepEqual(got, want) {
		if !resultsEqual(got, want) || got.Node != want.Node || got.NodeKey != want.NodeKey ||
			len(got.Rows) != len(want.Rows) || (got.Rows == nil) != (want.Rows == nil) ||
			!bytes.Equal(AppendResult(nil, got), AppendResult(nil, want)) {
			t.Fatalf("decoded value differs:\n got %+v\nwant %+v", got, want)
		}
	}
	for i := range got.Groups {
		if g := got.Groups[i]; g.Rows == nil || cap(g.Rows) != len(g.Rows) {
			t.Fatalf("group %d: Rows nil or not capacity-capped (len %d cap %d)", i, len(g.Rows), cap(g.Rows))
		}
	}
	return got, nil
}

// randString draws keys and members that exercise the string slab: empty,
// ASCII, and multi-byte UTF-8.
func randString(rng *rand.Rand) string {
	switch rng.Intn(4) {
	case 0:
		return ""
	case 1:
		return "Zürich|東京|🙂"[:rng.Intn(len("Zürich|東京|🙂")+1)] // may cut a rune: bytes are bytes
	}
	b := make([]byte, rng.Intn(24))
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// randResult draws 1–100 groups of 0–8 rows.
func randResult(rng *rand.Rand) *f2db.Result {
	res := &f2db.Result{Forecast: rng.Intn(2) == 0, Plan: randString(rng)}
	specials := []float64{0, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	for i, n := 0, 1+rng.Intn(100); i < n; i++ {
		grp := f2db.Group{Node: rng.Intn(1 << 20), NodeKey: randString(rng), Member: randString(rng)}
		grp.Rows = make([]f2db.QueryRow, rng.Intn(9))
		for j := range grp.Rows {
			grp.Rows[j] = f2db.QueryRow{T: rng.Intn(1 << 16), Value: rng.NormFloat64(), Lo: rng.NormFloat64(), Hi: rng.NormFloat64()}
			if rng.Intn(8) == 0 {
				grp.Rows[j].Value = specials[rng.Intn(len(specials))]
			}
		}
		res.Groups = append(res.Groups, grp)
	}
	res.Node, res.NodeKey, res.Rows = res.Groups[0].Node, res.Groups[0].NodeKey, res.Groups[0].Rows
	return res
}

// TestDecodeResultExplain: an EXPLAIN answer — a plan and no groups — decodes
// to a result with that plan and nothing else set; with no plan either, a
// group-less payload is still malformed. Both decoders, identically.
func TestDecodeResultExplain(t *testing.T) {
	for _, forecast := range []bool{false, true} {
		payload := AppendResult(nil, &f2db.Result{Node: 7, NodeKey: "region=R1", Forecast: forecast, Plan: "direct from [region=R1]"})
		got, err := checkDecodeTwin(t, payload)
		if err != nil {
			t.Fatalf("EXPLAIN answer refused: %v", err)
		}
		want := &f2db.Result{Forecast: forecast, Plan: "direct from [region=R1]", Groups: []f2db.Group{}}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("EXPLAIN answer decoded as %+v, want %+v", got, want)
		}
		for cut := 0; cut < len(payload); cut++ {
			if _, err := checkDecodeTwin(t, payload[:cut]); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}
		if _, err := checkDecodeTwin(t, append(payload, 0)); err == nil {
			t.Fatal("trailing byte accepted")
		}
	}
	if _, err := checkDecodeTwin(t, AppendResult(nil, &f2db.Result{})); err == nil || err.Error() != "wire: result with zero groups" {
		t.Fatalf("a result with neither plan nor groups: %v", err)
	}
}

// inlineRows is f2db.NewResult's limit: one group of at most this many rows
// is decoded into one block with its Result.
const inlineRows = 8

// TestDecodeResultTwin is the differential gate for the slab decoder: on
// generated results (1–100 groups, 0–8 rows, empty and non-ASCII strings),
// and on one-group answers of inlineRows and inlineRows+1 forecast rows and
// of a short history — NewResult's two layouts — it must return exactly
// what the replaced decoder returns, and re-encode to the same bytes: for
// the valid payload, for its truncation at every byte, with trailing bytes,
// and with each count field inflated.
func TestDecodeResultTwin(t *testing.T) {
	history := shapedResult(1, 5)
	history.Forecast = false
	for i := range history.Rows {
		history.Rows[i] = f2db.QueryRow{T: i, Value: float64(40 + i)}
	}
	for _, want := range []*f2db.Result{shapedResult(1, inlineRows), shapedResult(1, inlineRows+1), history} {
		checkPayloadTwin(t, fmt.Sprintf("%d rows", len(want.Rows)), want)
	}
	check := func(seed int64) bool {
		checkPayloadTwin(t, fmt.Sprintf("seed %d", seed), randResult(rand.New(rand.NewSource(seed))))
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// checkPayloadTwin runs the decoder twin on want's encoding, its
// truncations, its trailing bytes and its inflated counts.
func checkPayloadTwin(t *testing.T, name string, want *f2db.Result) {
	t.Helper()
	valid := AppendResult(nil, want)
	got, err := checkDecodeTwin(t, valid)
	if err != nil || !reflect.DeepEqual(got, want) || !bytes.Equal(AppendResult(nil, got), valid) {
		t.Fatalf("%s: round trip: %v\n got %+v\nwant %+v", name, err, got, want)
	}
	for cut := 0; cut < len(valid); cut++ {
		if _, err := checkDecodeTwin(t, valid[:cut]); err == nil {
			t.Fatalf("%s: truncation at %d accepted", name, cut)
		}
	}
	for _, tail := range [][]byte{{0}, {0xFF}, valid} {
		if _, err := checkDecodeTwin(t, append(append([]byte(nil), valid...), tail...)); err == nil {
			t.Fatalf("%s: %d trailing bytes accepted", name, len(tail))
		}
	}
	// Inflate the group count and the first group's row count: the header
	// is flags, plan, numGroups, then node, key, member, numRows.
	planLen, n := binary.Uvarint(valid[1:])
	groupsAt := 1 + n + int(planLen)
	for _, bump := range []uint64{1, 1000, 1 << 40} {
		checkDecodeTwin(t, spliceUvarint(valid, groupsAt, bump))
	}
	at := groupsAt
	_, n = binary.Uvarint(valid[at:]) // numGroups
	at += n
	_, n = binary.Uvarint(valid[at:]) // node
	at += n
	for i := 0; i < 2; i++ { // key, member
		l, n := binary.Uvarint(valid[at:])
		at += n + int(l)
	}
	for _, bump := range []uint64{1, 1000, 1 << 40} {
		checkDecodeTwin(t, spliceUvarint(valid, at, bump))
	}
}

// spliceUvarint returns a copy of payload with the uvarint at offset at
// increased by bump.
func spliceUvarint(payload []byte, at int, bump uint64) []byte {
	v, n := binary.Uvarint(payload[at:])
	out := append([]byte(nil), payload[:at]...)
	out = binary.AppendUvarint(out, v+bump)
	return append(out, payload[at+n:]...)
}

// TestDecodeResultRowsIsolated: the groups' Rows share one slab, so each
// must be capacity-capped — growing one group must not overwrite the next.
func TestDecodeResultRowsIsolated(t *testing.T) {
	res, err := DecodeResult(AppendResult(nil, shapedResult(3, 2)))
	if err != nil {
		t.Fatal(err)
	}
	neighbour := append([]f2db.QueryRow(nil), res.Groups[1].Rows...)
	res.Groups[0].Rows = append(res.Groups[0].Rows, f2db.QueryRow{T: -1, Value: -1})
	if !reflect.DeepEqual(res.Groups[1].Rows, neighbour) {
		t.Fatalf("append to group 0 changed group 1: %+v", res.Groups[1].Rows)
	}
}

// TestDecodeResultAllocs pins the decoder's allocation count, whatever the
// group count: a one-group answer of up to inlineRows rows is two objects
// (its block and the string slab), any other shape four (the Result, its
// []Group, the row slab and the string slab). The replaced decoder: 6, 54
// and 252 for 1, 17 and 83 groups of 3 rows. Before the one-group block,
// every shape was four.
func TestDecodeResultAllocs(t *testing.T) {
	for _, c := range []struct{ groups, rows, want int }{
		{1, 3, 2}, {1, inlineRows, 2}, {1, inlineRows + 1, 4}, {17, 3, 4}, {83, 3, 4}, {83, inlineRows + 1, 4},
	} {
		payload := AppendResult(nil, shapedResult(c.groups, c.rows))
		n := testing.AllocsPerRun(200, func() {
			if _, err := DecodeResult(payload); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d groups of %d rows: %.0f allocs (oracle: %.0f)", c.groups, c.rows, n,
			testing.AllocsPerRun(50, func() { oracleDecodeResult(payload) }))
		if n != float64(c.want) {
			t.Errorf("%d groups of %d rows: DecodeResult allocates %.0f objects, want %d", c.groups, c.rows, n, c.want)
		}
	}
}
