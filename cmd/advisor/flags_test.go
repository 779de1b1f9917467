package main

import (
	"flag"
	"strings"
	"testing"
)

// parentFlags is advisor's flag set — name=default, sorted — recorded from
// the binary at 7589261, the parent of the one hyper graph.
const parentFlags = `alpha=0 csv= dataset=tourism dims= lazy=false max-models=0 out= paper-scale=false period=1 progress=false sample-size=0 seed=42 target-error=0`

// TestFlagSet pins what the binary accepts: the parent's set minus -lazy
// and -sample-size.
func TestFlagSet(t *testing.T) {
	want := strings.NewReplacer(" lazy=false", "", " sample-size=0", "").Replace(parentFlags)
	fs := flag.NewFlagSet("advisor", flag.ContinueOnError)
	registerFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("flag set\n got %s\nwant %s", s, want)
	}
}
