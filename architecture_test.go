package cubefc_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"regexp"
	"strings"
	"testing"
	"testing/fstest"
)

// archRules are the repository's structural rules. Each is a function over
// a file system rooted at the module root: TestArchitecture runs them on the
// checkout, TestArchitectureRulesCanFail on small trees with one planted
// violation each.
var archRules = []struct {
	name  string
	check func(fs.FS) error
}{
	{"one renderer", oneRenderer},
	{"one assembly path", oneAssemblyPath},
	{"one hyper graph", oneHyperGraph},
	{"one evaluator", oneEvaluator},
	{"no option without a setter", noGoneNames},
	{"no gob", noGob},
	{"cited tests exist", citedTestsExist},
	{"legibility budget", legibilityBudget},
}

func TestArchitecture(t *testing.T) {
	fsys := os.DirFS(".")
	for _, r := range archRules {
		t.Run(r.name, func(t *testing.T) {
			if err := r.check(fsys); err != nil {
				t.Error(err)
			}
		})
	}
}

// goFile is one parsed Go source file under its slash-separated path.
type goFile struct {
	path string
	file *ast.File
}

// parseGo parses the .go files under roots (files or directories; an absent
// root is skipped), leaving out test files unless withTests is set, and
// testdata and dot directories always.
func parseGo(fsys fs.FS, withTests bool, roots ...string) ([]goFile, error) {
	fset := token.NewFileSet()
	var files []goFile
	for _, root := range roots {
		err := fs.WalkDir(fsys, root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				if p == root && errors.Is(err, fs.ErrNotExist) {
					return nil
				}
				return err
			}
			if d.IsDir() {
				if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
					return fs.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") || (!withTests && strings.HasSuffix(p, "_test.go")) {
				return nil
			}
			src, err := fs.ReadFile(fsys, p)
			if err != nil {
				return err
			}
			f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, goFile{p, f})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return files, nil
}

// violations turns a rule's findings into its error.
func violations(what string, found []string) error {
	if len(found) == 0 {
		return nil
	}
	return fmt.Errorf("%s:\n  %s", what, strings.Join(found, "\n  "))
}

// oneRenderer: only internal/metrics writes the exposition format, so the
// only "# HELP" string literal outside tests is in its metrics.go.
func oneRenderer(fsys fs.FS) error {
	files, err := parseGo(fsys, false, "internal", "cmd")
	if err != nil {
		return err
	}
	var in []string
	for _, f := range files {
		found := false
		ast.Inspect(f.file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING && strings.Contains(lit.Value, "# HELP") {
				found = true
			}
			return !found
		})
		if found {
			in = append(in, f.path)
		}
	}
	if len(in) == 1 && in[0] == "internal/metrics/metrics.go" {
		return nil
	}
	return violations(`"# HELP" literals must be in internal/metrics/metrics.go alone; found in`, in)
}

// assemblyCalls open or build an engine from its parts; internal/daemon
// does that for all three binaries.
var assemblyCalls = map[string]bool{
	"f2db.OpenDurable":       true,
	"f2db.LoadDatabase":      true,
	"f2db.LoadConfiguration": true,
	"csvload.Load":           true,
}

// oneAssemblyPath: the binaries reach an engine through internal/daemon
// only.
func oneAssemblyPath(fsys fs.FS) error {
	files, err := parseGo(fsys, true, "cmd/advisor", "cmd/f2dbcli", "cmd/f2dbd")
	if err != nil {
		return err
	}
	var uses []string
	for _, f := range files {
		ast.Inspect(f.file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && assemblyCalls[pkg.Name+"."+sel.Sel.Name] {
					uses = append(uses, f.path+" "+pkg.Name+"."+sel.Sel.Name)
				}
			}
			return true
		})
	}
	return violations("engine assembly outside internal/daemon", uses)
}

var graphCtor = regexp.MustCompile(`^New[A-Za-z]*Graph$`)

// oneHyperGraph: internal/cube has one exported graph constructor, and no
// code outside tests reaches a lazy mode bit or a second builder.
func oneHyperGraph(fsys fs.FS) error {
	cube, err := parseGo(fsys, false, "internal/cube")
	if err != nil {
		return err
	}
	var ctors []string
	for _, f := range cube {
		for _, decl := range f.file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && graphCtor.MatchString(fd.Name.Name) {
				ctors = append(ctors, f.path+" "+fd.Name.Name)
			}
		}
	}
	if len(ctors) != 1 {
		return violations("internal/cube must have one New*Graph constructor; found", ctors)
	}
	files, err := parseGo(fsys, false, "internal", "cmd", "examples", "cubefc.go")
	if err != nil {
		return err
	}
	var found []string
	for _, f := range files {
		ast.Inspect(f.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if n.Name == "NewLazyGraph" || n.Name == "LazyGraph" {
					found = append(found, f.path+" "+n.Name)
				}
			case *ast.SelectorExpr:
				if n.Sel.Name == "lazy" {
					found = append(found, f.path+" ."+n.Sel.Name)
				}
			}
			return true
		})
	}
	return violations("a lazy mode or second graph builder", found)
}

// oneEvaluator: derivation and indicator have no …From twin of a function,
// and there is one scheme evaluator.
func oneEvaluator(fsys fs.FS) error {
	kernels, err := parseGo(fsys, false, "internal/derivation", "internal/indicator")
	if err != nil {
		return err
	}
	var found []string
	for _, f := range kernels {
		for _, decl := range f.file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && strings.HasSuffix(fd.Name.Name, "From") {
				found = append(found, f.path+" "+fd.Name.Name)
			}
		}
	}
	all, err := parseGo(fsys, true, "internal", "cmd")
	if err != nil {
		return err
	}
	for _, f := range all {
		ast.Inspect(f.file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "evalSchemeSampled" {
				found = append(found, f.path+" "+id.Name)
			}
			return true
		})
	}
	return violations("a second evaluator path", found)
}

// noGob: configurations, snapshots and models are written by the codec
// of internal/f2db/image.go and internal/forecast/codec.go, so no program
// file imports encoding/gob; a test may, to read what earlier versions
// wrote.
func noGob(fsys fs.FS) error {
	files, err := parseGo(fsys, false, ".")
	if err != nil {
		return err
	}
	var found []string
	for _, f := range files {
		for _, imp := range f.file.Imports {
			if imp.Path.Value == `"encoding/gob"` {
				found = append(found, f.path)
			}
		}
	}
	return violations("encoding/gob imported by", found)
}

// goneNames were removed and stay gone: the background prober, the
// wall-clock cost metric, cold re-fits, per-point workload inserts, eager
// re-estimation, the model families and name registry no default,
// fallback or self-tuning path reached, the generation-checked re-fit
// with its retries, under-lock fallback and second durability lock, and
// the write stripes with their advance generation and per-node memo epochs,
// the coordinator's per-partition write epochs with their
// batch-completion guess, fclient's health machine and backoff with
// the network tier's option fields nothing set, the two indicator
// kernels HistoricalIndicators replaced, the sampled advisor: its
// option, reservoir estimator, PPS-drawn schemes and error figures, the
// pending lock with its contention counter and the engine-lock witness,
// the read table's singleflight, the generator and self-tuning option
// fields no program set, the graph's history sum, its summing helper
// and its summing-vector alias, which History and CoveredBases replace,
// the self-forecasting engine with its actuators, query telemetry,
// runtime cache resizes and flag group, the per-series segment codec
// (bit streams, delta-of-delta times, XOR values, blocks and footer
// index) with the re-fit's generation bump, and the segment file itself —
// its codec, replay, prune and names, the span compaction re-encoded and
// the recovery count it kept — now that a sealed WAL file is the segment,
// and the gob images' row and image types with the gob model clone, the
// graph's second skeleton builder with the packed one's size limits, and
// the stand-alone snapshot file with the wall-clock checkpoint scheduler
// and f2dbd's planner loader, now that a durable directory is the engine's
// only on-disk form and its checkpoint budget runs on the insert path.
// The codec's Series type is not listed: the name is the time-series
// type's everywhere else.
var goneNames = map[string]bool{
	"AsyncMultiSource": true,
	"CostTime":         true,
	"MaxCostSeconds":   true,
	"ColdRefit":        true,
	"PerPointInserts":  true,
	"EagerReestimate":  true,
	"NewAuto":          true,
	"Croston":          true,
	"NewCroston":       true,
	"NewDrift":         true,
	"MeanModel":        true,
	"NewMean":          true,
	"SeasonalNaive":    true,
	"NewSeasonalNaive": true,
	"NewByName":        true,
	"FactoryByName":    true,
	"Backtest":         true,

	"reestimate":            true,
	"reestimateNode":        true,
	"reestimateMany":        true,
	"reestimateMaxRetries":  true,
	"invalidSources":        true,
	"testHookBeforeInstall": true,
	"saveDatabaseLocked":    true,
	"dmu":                   true,

	"writeStripe":        true,
	"stripeIndex":        true,
	"stripeShiftFor":     true,
	"resolveStripeCount": true,
	"maxWriteStripes":    true,
	"advanceGen":         true,
	"testHookAfterSweep": true,
	"bumpAll":            true,
	"shardFor":           true,

	"partEpochs":     true,
	"pendingRows":    true,
	"maxStampParts":  true,
	"EpochPartBumps": true,
	"NumBaseSeries":  true,

	"SickThreshold":  true,
	"SickCooldown":   true,
	"BackoffBase":    true,
	"BackoffMax":     true,
	"ErrUnhealthy":   true,
	"RecoverBackoff": true,
	"QueryWait":      true,
	"DrainGrace":     true,
	"noteFailure":    true,
	"sickUntil":      true,

	"HistoricalError": true,
	"WeightStability": true,

	"buildSkeletonKeys":   true,
	"buildSkeletonPacked": true,
	"maxPackedDims":       true,
	"errPackedOverflow":   true,

	"SampleSize":       true,
	"SampledSource":    true,
	"NewSampledSource": true,
	"SampleConfig":     true,
	"ExactUpTo":        true,
	"SampledScheme":    true,
	"NewSampledScheme": true,
	"SampleOptions":    true,
	"SampleBound":      true,
	"SeriesError":      true,
	"MeanRelStd":       true,

	"pendMu":          true,
	"lockPending":     true,
	"pendContention":  true,
	"assertExclusive": true,
	"writeHeld":       true,
	"rLock":           true,
	"wLock":           true,

	"GenXOptions":   true,
	"SeasonalShare": true,
	"MaxTemplates":  true,
	"HalfLife":      true,
	"MinHistory":    true,
	"EvictBelow":    true,
	"MaxPerTick":    true,
	"MinGap":        true,
	"Hysteresis":    true,
	"flSt":          true,
	"flRes":         true,

	"HistorySum":    true,
	"historyLocked": true,
	"SummingVector": true,

	"SetTelemetry":             true,
	"QueryTelemetry":           true,
	"ObserveTemplate":          true,
	"teleBox":                  true,
	"teleSink":                 true,
	"SetPlanCacheCapacity":     true,
	"SetForecastCacheCapacity": true,
	"CacheCapacities":          true,
	"SetCacheCapacity":         true,
	"setCapacity":              true,
	"CacheResizes":             true,
	"SelfTune":                 true,
	"attachCoordTuning":        true,
	"Prewarm":                  true,
	"TroughWork":               true,
	"CacheSizer":               true,

	"PlanTexts":              true,
	"FcKeys":                 true,
	"fcWarmKey":              true,
	"hotKeys":                true,
	"warmForecast":           true,
	"planWarmupLimit":        true,
	"fcWarmupLimit":          true,
	"fcCache":                true,
	"forecastIntervalLocked": true,
	"planQuery":              true,

	"bitWriter":         true,
	"bitReader":         true,
	"appendTimesDoD":    true,
	"decodeTimesDoD":    true,
	"appendValuesXOR":   true,
	"decodeValuesXOR":   true,
	"appendVarint":      true,
	"maxSegmentSeries":  true,
	"frameBlock":        true,
	"readBlock":         true,
	"decodeSeriesBlock": true,
	"segEndMagic":       true,
	"segTrailerLen":     true,
	"blockFrameLen":     true,
	"bumpGen":           true,

	"EncodeSegment":       true,
	"DecodeSegment":       true,
	"replaySegments":      true,
	"removeSegmentsBelow": true,
	"segmentFileName":     true,
	"parseSegmentName":    true,
	"compactFrom":         true,
	"EarliestStartGen":    true,
	"SegmentBatches":      true,

	"dbImage":     true,
	"configImage": true,
	"ConfigRow":   true,
	"ModelRow":    true,
	"dimImage":    true,
	"dimImages":   true,
	"pendingRow":  true,
	"Cloner":      true,

	"WriteSnapshotFile":      true,
	"CheckpointScheduler":    true,
	"CheckpointPolicy":       true,
	"NewCheckpointScheduler": true,
	"openPlanner":            true,
}

// noGoneNames: no identifier, tests included, brings a gone name back.
func noGoneNames(fsys fs.FS) error {
	files, err := parseGo(fsys, true, "internal", "cmd", "examples", "cubefc.go", "bench_test.go")
	if err != nil {
		return err
	}
	var found []string
	for _, f := range files {
		ast.Inspect(f.file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && goneNames[id.Name] {
				found = append(found, f.path+" "+id.Name)
			}
			return true
		})
	}
	if _, err := fs.Stat(fsys, "internal/core/async.go"); err == nil {
		found = append(found, "internal/core/async.go")
	}
	// The Combine baseline's QR lives in internal/hierarchical, its one
	// caller.
	linalg, err := parseGo(fsys, true, "internal/linalg")
	if err != nil {
		return err
	}
	for _, f := range linalg {
		found = append(found, f.path)
	}
	return violations("gone names are back", found)
}

// citedDocs are the documents whose test citations must resolve.
var citedDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

var citedName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)

// citedTestsExist: every Test* and Fuzz* name the documents cite is a test
// function, and every cited Benchmark* name prefixes one (a family).
func citedTestsExist(fsys fs.FS) error {
	files, err := parseGo(fsys, true, ".")
	if err != nil {
		return err
	}
	defined := make(map[string]bool)
	var benches []string
	for _, f := range files {
		if !strings.HasSuffix(f.path, "_test.go") {
			continue
		}
		for _, decl := range f.file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				defined[fd.Name.Name] = true
				if strings.HasPrefix(fd.Name.Name, "Benchmark") {
					benches = append(benches, fd.Name.Name)
				}
			}
		}
	}
	var found []string
	for _, doc := range citedDocs {
		data, err := fs.ReadFile(fsys, doc)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return err
		}
		seen := make(map[string]bool)
		for _, name := range citedName.FindAllString(string(data), -1) {
			if seen[name] || defined[name] {
				continue
			}
			seen[name] = true
			ok := false
			if strings.HasPrefix(name, "Benchmark") {
				for _, b := range benches {
					ok = ok || strings.HasPrefix(b, name)
				}
			}
			if !ok {
				found = append(found, doc+" "+name)
			}
		}
	}
	return violations("cited tests that do not exist", found)
}

// Legibility budget: non-test Go lines under internal/ and cmd/, and the
// lines of the two documents a newcomer reads first. A change that needs
// more re-records the number here and says why in CHANGES.md.
const goLineBudget = 16580

var docLineBudget = map[string]int{"DESIGN.md": 1230, "README.md": 499}

// legibilityBudget: the program and its main documents stay within their
// recorded line counts.
func legibilityBudget(fsys fs.FS) error {
	goLines := 0
	for _, root := range []string{"internal", "cmd"} {
		err := fs.WalkDir(fsys, root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				if p == root && errors.Is(err, fs.ErrNotExist) {
					return nil
				}
				return err
			}
			if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return nil
			}
			data, err := fs.ReadFile(fsys, p)
			goLines += strings.Count(string(data), "\n")
			return err
		})
		if err != nil {
			return err
		}
	}
	var found []string
	if goLines > goLineBudget {
		found = append(found, fmt.Sprintf("internal/ and cmd/: %d non-test Go lines, budget %d", goLines, goLineBudget))
	}
	for doc, budget := range docLineBudget {
		data, err := fs.ReadFile(fsys, doc)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return err
		}
		if n := strings.Count(string(data), "\n"); n > budget {
			found = append(found, fmt.Sprintf("%s: %d lines, budget %d", doc, n, budget))
		}
	}
	return violations("over the legibility budget", found)
}

func src(s string) *fstest.MapFile { return &fstest.MapFile{Data: []byte(s)} }

// TestArchitectureRulesCanFail gives each rule a clean tree it must accept
// and the same tree with one planted violation it must reject.
func TestArchitectureRulesCanFail(t *testing.T) {
	for _, c := range []struct {
		name  string
		check func(fs.FS) error
		clean fstest.MapFS
		plant fstest.MapFS
	}{
		{
			"second HELP literal", oneRenderer,
			fstest.MapFS{"internal/metrics/metrics.go": src("package metrics\n\nconst help = \"# HELP \"\n")},
			fstest.MapFS{"internal/server/metrics.go": src("package server\n\nconst up = \"# HELP f2dbd_up\"\n")},
		},
		{
			"LoadDatabase in cmd/advisor", oneAssemblyPath,
			fstest.MapFS{"cmd/f2dbd/main.go": src("package main\n\nfunc open() { eng.Open(&src, logf) }\n")},
			fstest.MapFS{"cmd/advisor/main.go": src("package main\n\nfunc run() { f2db.LoadDatabase(nil, f2db.Options{}) }\n")},
		},
		{
			"second New*Graph constructor", oneHyperGraph,
			fstest.MapFS{"internal/cube/graph.go": src("package cube\n\nfunc NewGraph() {}\n")},
			fstest.MapFS{"internal/cube/skeleton.go": src("package cube\n\nfunc NewSkeletonGraph() {}\n")},
		},
		{
			"From function in derivation", oneEvaluator,
			fstest.MapFS{"internal/derivation/derivation.go": src("package derivation\n\nfunc Apply() {}\n")},
			fstest.MapFS{"internal/derivation/from.go": src("package derivation\n\nfunc ApplyFrom() {}\n")},
		},
		{
			"encoding/gob in a program file", noGob,
			fstest.MapFS{
				"internal/f2db/image.go":    src("package f2db\n\nimport \"encoding/binary\"\n"),
				"internal/f2db/old_test.go": src("package f2db\n\nimport \"encoding/gob\"\n"),
			},
			fstest.MapFS{"internal/f2db/storage.go": src("package f2db\n\nimport \"encoding/gob\"\n")},
		},
		{
			"gone name", noGoneNames,
			fstest.MapFS{"internal/f2db/db.go": src("package f2db\n\ntype Options struct{ Parallelism int }\n")},
			fstest.MapFS{"internal/f2db/db.go": src("package f2db\n\ntype Options struct {\n\tParallelism     int\n\tEagerReestimate bool\n}\n")},
		},
		{
			"gone family", noGoneNames,
			fstest.MapFS{"internal/forecast/naive.go": src("package forecast\n\nfunc NewNaive() {}\n")},
			fstest.MapFS{"internal/forecast/croston.go": src("package forecast\n\nfunc NewCroston(sba bool) {}\n")},
		},
		{
			"Go file under internal/linalg", noGoneNames,
			fstest.MapFS{"internal/hierarchical/qr.go": src("package hierarchical\n\nfunc newQR() {}\n")},
			fstest.MapFS{"internal/linalg/matrix.go": src("package linalg\n")},
		},
		{
			"Go lines over budget", legibilityBudget,
			fstest.MapFS{
				"internal/x/x.go":      src("package x\n"),
				"internal/x/x_test.go": src(strings.Repeat("\n", goLineBudget+1)),
			},
			fstest.MapFS{"cmd/y/main.go": src(strings.Repeat("\n", goLineBudget))},
		},
		{
			"DESIGN.md over budget", legibilityBudget,
			fstest.MapFS{"DESIGN.md": src(strings.Repeat("x\n", docLineBudget["DESIGN.md"]))},
			fstest.MapFS{"DESIGN.md": src(strings.Repeat("x\n", docLineBudget["DESIGN.md"]+1))},
		},
		{
			"README.md over budget", legibilityBudget,
			fstest.MapFS{"README.md": src(strings.Repeat("x\n", docLineBudget["README.md"]))},
			fstest.MapFS{"README.md": src(strings.Repeat("x\n", docLineBudget["README.md"]+1))},
		},
		{
			"cited test missing", citedTestsExist,
			fstest.MapFS{
				"DESIGN.md":            src("Pinned by `TestFoo`; timed by `BenchmarkBar`.\n"),
				"internal/x/x_test.go": src("package x\n\nfunc TestFoo(t *testing.T) {}\n\nfunc BenchmarkBarSmall(b *testing.B) {}\n"),
			},
			fstest.MapFS{"README.md": src("See `TestGone`.\n")},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := c.check(c.clean); err != nil {
				t.Fatalf("rule rejects the clean tree: %v", err)
			}
			planted := fstest.MapFS{}
			for p, f := range c.clean {
				planted[p] = f
			}
			for p, f := range c.plant {
				planted[p] = f
			}
			if err := c.check(planted); err == nil {
				t.Fatal("rule accepts the planted violation")
			}
		})
	}
}
