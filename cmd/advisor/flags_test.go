package main

import (
	"flag"
	"strings"
	"testing"
)

// parentFlags is advisor's flag set — name=default, sorted — recorded from
// cmd/advisor/main.go at 0e31511, the parent of the shared assembly path.
const parentFlags = `alpha=0 csv= dataset=tourism dims= exact=false lazy=false max-models=0 out= paper-scale=false period=1 progress=false sample-size=0 seed=42 target-error=0`

// TestFlagSet pins what the binary accepts: the parent's set minus -exact.
func TestFlagSet(t *testing.T) {
	want := strings.Replace(parentFlags, " exact=false", "", 1)
	fs := flag.NewFlagSet("advisor", flag.ContinueOnError)
	registerFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("flag set\n got %s\nwant %s", s, want)
	}
}
