package daemon

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cubefc/internal/core"
	"cubefc/internal/f2db"
	"cubefc/internal/workload"
)

// register declares the three groups on a fresh FlagSet — which panics on
// a name declared twice.
func register() (*flag.FlagSet, *Source, *Engine, *Metrics) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	src, eng, met := &Source{}, &Engine{}, &Metrics{}
	for _, g := range []interface{ Register(*flag.FlagSet) }{src, eng, met} {
		g.Register(fs)
	}
	return fs, src, eng, met
}

// parse registers the three groups and parses args.
func parse(t *testing.T, args ...string) (*Source, *Engine, *Metrics) {
	t.Helper()
	fs, src, eng, met := register()
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return src, eng, met
}

func TestGroupsDeclareEachFlagOnce(t *testing.T) {
	fs, _, _, _ := register()
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 4+5+2 {
		t.Fatalf("the three groups declare %d flags, want 11", n)
	}
}

const factsCSV = `time,product,city,region,value
0,P1,C1,R1,10
0,P1,C2,R1,20
0,P2,C1,R1,30
0,P2,C2,R1,40
1,P1,C1,R1,11
1,P1,C2,R1,21
1,P2,C1,R1,31
1,P2,C2,R1,41
`

// TestSourceGraphIsOnDemand: the built-in and the CSV source land on the
// one graph builder — only the base nodes exist until something asks for an
// aggregate — and the switches that used to pick a builder and a re-fit mode
// are not flags any more.
func TestSourceGraphIsOnDemand(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "facts.csv")
	if err := os.WriteFile(csv, []byte(factsCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-dataset", "tourism"},
		{"-csv", csv, "-dims", "product;location=city<region", "-period", "2"},
	} {
		src, _, _ := parse(t, args...)
		g, _, err := src.Graph()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := g.MaterializedNodes(), len(g.BaseIDs); got != want || want == g.NumNodes() {
			t.Errorf("%v: %d of %d nodes materialized at construction, want the %d base nodes", args, got, g.NumNodes(), want)
		}
	}
	for _, gone := range []string{"-lazy", "-cold-refit"} {
		if fs, _, _, _ := register(); fs.Parse([]string{gone}) == nil {
			t.Errorf("%s is still a flag", gone)
		}
	}
}

// TestAdvisorPathResidentSet: the advisor reads every series from a table
// it owns and f2db.Open reads histories without materializing, so an engine
// assembled on the advisor path holds only its base nodes until a query
// asks for more.
func TestAdvisorPathResidentSet(t *testing.T) {
	src, eng, _ := parse(t, "-dataset", "tourism")
	h, err := eng.Open(src, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if got, want := h.Graph.MaterializedNodes(), len(h.Graph.BaseIDs); got != want {
		t.Fatalf("%d of %d nodes resident before the first query, want the %d base nodes", got, h.Graph.NumNodes(), want)
	}
}

// TestOpenCloseReopenTwin is the repo's twin idiom for the assembly path:
// an engine opened on a durable directory, fed a batch, closed and opened
// again answers bit-identically to one that was never closed and never had
// a directory.
func TestOpenCloseReopenTwin(t *testing.T) {
	src, _, _ := parse(t, "-dataset", "tourism")
	g, _, err := src.Graph()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := core.Run(g, core.Options{Seed: 42, FixedGamma: true})
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(t.TempDir(), "config.f2db")
	fh, err := os.Create(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := f2db.SaveConfiguration(fh, cfg); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}

	var log []string
	open := func(args ...string) *Handle {
		t.Helper()
		src, eng, _ := parse(t, append([]string{"-dataset", "tourism", "-config", cfgPath}, args...)...)
		h, err := eng.Open(src, func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) })
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	durable := []string{"-wal-dir", t.TempDir(), "-fsync", "never"}
	twin, h := open(), open(durable...)
	if twin.Durable != nil || h.Durable == nil || !h.Durable.Recovery.FreshBuild || h.Graph == nil {
		t.Fatalf("first open: twin durable %v, durable %+v", twin.Durable != nil, h.Durable)
	}

	gen := workload.New(h.Graph, 1)
	insert := gen.InsertSQL(gen.NextBatch())
	for _, db := range []*f2db.DB{twin.DB, h.DB} {
		if err := db.Exec(insert); err != nil {
			t.Fatal(err)
		}
	}
	batches := h.DB.Stats().Batches
	if batches != 1 {
		t.Fatalf("one full batch advanced time %d times", batches)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	log = nil
	h = open(durable...)
	defer h.Close()
	if h.Durable.Recovery.FreshBuild || h.Graph != nil {
		t.Fatalf("second open rebuilt: %+v", h.Durable.Recovery)
	}
	if len(log) != 1 || !strings.HasPrefix(log[0], "recovered "+durable[1]+": snapshot generation") {
		t.Fatalf("second open logged %q, want the one recovery line", log)
	}
	if got := h.DB.Stats().Batches; got != batches {
		t.Fatalf("Batches after reopen = %d, want %d", got, batches)
	}
	const q = "SELECT time, SUM(m) FROM facts WHERE state = 'NSW' GROUP BY time AS OF now() + '3 steps'"
	want, err := twin.DB.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.DB.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Groups) != 1 || len(got.Groups) != 1 || len(want.Groups[0].Rows) != 3 || len(got.Groups[0].Rows) != 3 {
		t.Fatalf("answers: twin %+v, reopened %+v", want, got)
	}
	for i, w := range want.Groups[0].Rows {
		if r := got.Groups[0].Rows[i]; r.T != w.T || math.Float64bits(r.Value) != math.Float64bits(w.Value) {
			t.Errorf("row %d: reopened %+v, twin %+v", i, r, w)
		}
	}
}

func TestPprofNeedsMetrics(t *testing.T) {
	_, _, met := parse(t, "-pprof")
	const want = "-pprof mounts on the metrics listener; set -metrics too"
	if err := met.Check(); err == nil || err.Error() != want {
		t.Fatalf("Check() = %v, want %q", err, want)
	}
	if err := met.Serve(t.Logf); err == nil || err.Error() != want {
		t.Fatalf("Serve() = %v, want %q", err, want)
	}
	_, _, met = parse(t, "-pprof", "-metrics", "127.0.0.1:0")
	if err := met.Check(); err != nil {
		t.Fatal(err)
	}
	_, _, met = parse(t)
	if err := met.Serve(t.Logf); err != nil {
		t.Fatalf("Serve without -metrics: %v", err)
	}
}

// TestCloseStopsWhatWasStarted runs Close with the checkpoint scheduler
// live (a hang here is a stop that never came), and checks that what it
// leaves behind is a directory that recovers.
func TestCloseStopsWhatWasStarted(t *testing.T) {
	args := []string{"-dataset", "tourism", "-wal-dir", t.TempDir(), "-fsync", "never"}
	src, eng, _ := parse(t, args...)
	h, err := eng.Open(src, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	h.Checkpoints(f2db.CheckpointPolicy{EveryBatches: 1}, t.Logf)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	src, eng, _ = parse(t, args...)
	if h, err = eng.Open(src, t.Logf); err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.Durable.Recovery.FreshBuild {
		t.Fatal("the directory Close left behind did not recover")
	}
}
