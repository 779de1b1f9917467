package f2db

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// oracleParseHorizonIn is parseHorizonIn as it was before it stopped
// allocating: strings.Fields, strings.ToLower and no upper bound. The
// rewrite is held to it byte for byte, value and error, except where the
// oracle accepts more than maxHorizon steps.
func oracleParseHorizonIn(step time.Duration, interval string) (int, error) {
	fields := strings.Fields(strings.TrimSpace(interval))
	if len(fields) != 2 {
		return 0, fmt.Errorf("f2db: malformed AS OF interval %q (want '<n> <unit>')", interval)
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("f2db: malformed AS OF count %q", fields[0])
	}
	unit := strings.TrimSuffix(strings.ToLower(fields[1]), "s")
	var d time.Duration
	switch unit {
	case "step":
		return n, nil
	case "hour":
		d = time.Hour
	case "day":
		d = 24 * time.Hour
	case "week":
		d = 7 * 24 * time.Hour
	case "month":
		d = 30 * 24 * time.Hour
	case "quarter":
		d = 91 * 24 * time.Hour
	case "year":
		d = 365 * 24 * time.Hour
	default:
		return 0, fmt.Errorf("f2db: unknown AS OF unit %q", fields[1])
	}
	steps := int(float64(n) * float64(d) / float64(step))
	if steps < 1 {
		steps = 1
	}
	return steps, nil
}

// checkHorizonTwin compares parseHorizonIn with the oracle at three step
// durations. Where the new one rejects a horizon as over maxHorizon, the
// oracle must have accepted it (possibly as an overflowed int); where the
// oracle's answer is over maxHorizon, the new one must reject it.
func checkHorizonTwin(t *testing.T, interval string) {
	t.Helper()
	tooLong := fmt.Sprintf(" is more than %d steps", maxHorizon)
	for _, step := range []time.Duration{time.Hour, 24 * time.Hour, 7 * 24 * time.Hour} {
		got, err := parseHorizonIn(step, interval)
		want, werr := oracleParseHorizonIn(step, interval)
		if err != nil && strings.HasSuffix(err.Error(), tooLong) {
			if werr != nil {
				t.Fatalf("%q at %v: rejected as too long (%v), but the oracle rejects it: %v", interval, step, err, werr)
			}
			continue
		}
		if werr == nil && want > maxHorizon {
			t.Fatalf("%q at %v: %d, %v; the oracle's %d steps are over the limit", interval, step, got, err, want)
		}
		if got != want || fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("%q at %v: got %d, %v; oracle %d, %v", interval, step, got, err, want, werr)
		}
	}
}

// TestParseHorizonTwin: the allocation-free horizon parser accepts and
// rejects what the strings.Fields/ToLower one did, with the same values
// and error texts — over a table of grammar corners, Unicode white space
// and case folds, and over every interval in the FuzzParseSQL corpus — and
// bounds the horizon at maxHorizon steps.
func TestParseHorizonTwin(t *testing.T) {
	intervals := []string{
		"1 step", "6 steps", "3 STEPS", "2 Steps", "1 day", "2 days", "1 week", "5 hours",
		"1 month", "2 quarters", "1 year", "1 years", "10000 steps", "10001 steps",
		"417 days", "60 weeks", "9223372036854775807 steps", "99999999999 years",
		"100000000 steps", "0 steps", "-1 steps", "+2 steps", "02 steps", "1.5 steps",
		"", " ", "1", "steps", "1 2 steps", "1  steps", "\t1\nsteps ", "1 steps",
		"1 day", "1\u0085day", "1 stepss", "1 s", "1 ſtep", "1 weeK", "1 WEEKS",
		"1 İhour", "1 step\xff", "1\xa0steps", "1 hourſ", "1 DAYS", "1 dayS", "x days",
		"1 parsec", "soon", "1 step extra",
	}
	for _, iv := range intervals {
		checkHorizonTwin(t, iv)
	}
	if n, err := parseHorizonIn(24*time.Hour, "10000 steps"); n != maxHorizon || err != nil {
		t.Fatalf("10000 steps: %d, %v", n, err)
	}
	for _, iv := range []string{"10001 steps", "9223372036854775807 steps", "99999999999 years", "28 years"} {
		if _, err := parseHorizonIn(24*time.Hour, iv); err == nil {
			t.Fatalf("%q: accepted, want a horizon over %d steps rejected", iv, maxHorizon)
		}
	}

	dir := filepath.Join("testdata", "fuzz", "FuzzParseSQL")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			lit, ok := strings.CutPrefix(line, "string(")
			if !ok {
				continue
			}
			sql, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
			if err != nil {
				t.Fatalf("%s: %v", f.Name(), err)
			}
			checkHorizonTwin(t, sql)
			var stmt selectStmt
			if parseQuery(sql, &stmt) == nil && stmt.horizon != "" {
				checkHorizonTwin(t, stmt.horizon)
				seen++
			}
		}
	}
	if seen == 0 {
		t.Fatal("no corpus statement carries an AS OF interval")
	}
}
