package main

import (
	"flag"
	"strings"
	"testing"
)

// parentFlags is f2dbcli's flag set — name=default, sorted — recorded from
// the binary at 7589261, the parent of the one hyper graph.
const parentFlags = `cold-refit=false compact-every=256 config= csv= dataset=tourism db= dims= eager-reestimate=false exec= fsync=always lazy=false metrics= parallelism=0 period=1 pprof=false remote= sample-size=0 selftune=false selftune-bucket=1s selftune-horizon=1 selftune-season=0 stripes=0 wal-dir= workload=0 workload-horizon=1 workload-hot=0 workload-hot-frac=0.9 workload-phases=0 workload-queries=4 workload-readers=1 workload-seed=1 workload-writers=1`

// TestFlagSet pins what the binary accepts: the parent's set minus -lazy,
// -cold-refit, -eager-reestimate, -parallelism, -stripes, -sample-size,
// -selftune-horizon, -selftune, -selftune-bucket and -selftune-season, and
// minus -db: a durable directory (-wal-dir) is the only on-disk engine.
func TestFlagSet(t *testing.T) {
	want := strings.NewReplacer("cold-refit=false ", "", "lazy=false ", "", "eager-reestimate=false ", "", "parallelism=0 ", "", "stripes=0 ", "", "sample-size=0 ", "", "selftune-horizon=1 ", "", "selftune=false ", "", "selftune-bucket=1s ", "", "selftune-season=0 ", "",
		"db= ", "").Replace(parentFlags)
	fs := flag.NewFlagSet("f2dbcli", flag.ContinueOnError)
	registerFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("flag set\n got %s\nwant %s", s, want)
	}
}
