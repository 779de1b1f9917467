package main

import (
	"flag"
	"strings"
	"testing"
)

// parentFlags is f2dbd's flag set — name=default, sorted — recorded from
// the binary at 7589261, the parent of the one hyper graph.
const parentFlags = `addr=:7071 checkpoint-batches=0 checkpoint-every=0s cold-refit=false compact-every=256 config= coord-cache-size=1024 coordinator=false csv= dataset=tourism db= dims= drain-timeout=30s eager-reestimate=false fsync=always idle-timeout=0s lazy=false log-retain=0 max-conns=0 metrics= parallelism=0 period=1 pprof=false request-timeout=0s sample-size=0 save= selftune=false selftune-bucket=1s selftune-horizon=1 selftune-season=0 shards= stripes=0 wal-dir=`

// TestFlagSet pins what the binary accepts: the parent's set minus -lazy,
// -cold-refit, -eager-reestimate, -parallelism, -stripes, -sample-size,
// -selftune-horizon, -selftune, -selftune-bucket and -selftune-season.
func TestFlagSet(t *testing.T) {
	want := strings.NewReplacer("cold-refit=false ", "", "lazy=false ", "", "eager-reestimate=false ", "", "parallelism=0 ", "", "stripes=0 ", "", "sample-size=0 ", "", "selftune-horizon=1 ", "", "selftune=false ", "", "selftune-bucket=1s ", "", "selftune-season=0 ", "").Replace(parentFlags)
	fs := flag.NewFlagSet("f2dbd", flag.ContinueOnError)
	registerFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("flag set\n got %s\nwant %s", s, want)
	}
}

// TestCheck pins the flag combinations the daemon refuses and what it says.
func TestCheck(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-checkpoint-every 1s", "-checkpoint-every/-checkpoint-batches need -wal-dir"},
		{"-checkpoint-batches 4", "-checkpoint-every/-checkpoint-batches need -wal-dir"},
		{"-coordinator", "-coordinator requires -shards"},
		{"-coordinator -shards a:1 -wal-dir d", "-wal-dir needs a local engine; the shards own the data in coordinator mode"},
		{"-coordinator -shards a:1 -save f", "-save needs a local engine; the shards own the data in coordinator mode"},
		{"-pprof", "-pprof mounts on the metrics listener; set -metrics too"},
		{"-wal-dir d -checkpoint-batches 4 -pprof -metrics :0", ""},
		{"-coordinator -shards a:1", ""},
	} {
		fs := flag.NewFlagSet("f2dbd", flag.ContinueOnError)
		o := registerFlags(fs)
		if err := fs.Parse(strings.Fields(c.args)); err != nil {
			t.Fatal(err)
		}
		got := ""
		if err := o.check(); err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("f2dbd %s: check() = %q, want %q", c.args, got, c.want)
		}
	}
}
