package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"cubefc/internal/cube"
	"cubefc/internal/derivation"
	"cubefc/internal/forecast"
	"cubefc/internal/indicator"
	"cubefc/internal/optimize"
	"cubefc/internal/timeseries"
)

// Advisor runs the iterative model-configuration search of Sections III/IV.
// Use Run for the common case; NewAdvisor/Step expose the iteration
// machinery for fine-grained (anytime) control.
type Advisor struct {
	g    *cube.Graph
	opts Options
	cfg  *Configuration

	// locals holds the local indicator array of every node that carries a
	// model; candLoc caches locals computed for candidates during ranking
	// ("if not already present", Section IV-A.2).
	locals  map[int]*indicator.Local
	candLoc map[int]*indicator.Local
	global  *indicator.Global

	// modelFc caches the test-horizon forecast of every model, making
	// scheme evaluation cheap.
	modelFc map[int][]float64

	// warmSeeds holds, per (node, model family), the parameter vector of
	// that node's most recent fit. When a node is re-fitted in a later
	// iteration — a candidate rejected by eq. 8 but re-selected after the
	// α schedule moved — the optimizer seeds from the node's own previous
	// optimum (forecast.WarmStarter): the training window is fixed for the
	// whole run, so the re-fit converges to the same parameters at a
	// fraction of the cold search cost. Seeds are deliberately NOT shared
	// across nodes: a different series has a different optimum, and
	// cross-seeding was measured to steer fits into different local optima
	// and change which models the advisor accepts. The map is written only
	// from the sequential post-fit paths (evaluate's results loop,
	// addModel), never while the parallel fit goroutines run, so every fit
	// of an iteration reads the same deterministic snapshot.
	warmSeeds map[warmKey][]float64

	rejected map[int]bool // nodes marked never to be selected again

	// ids[i] == i: ids[m:m+1:m+1] is the Sources every single-source scheme
	// reading model m shares, read-only, and ids the first backfill's targets.
	ids []int

	// hist is where every series read — indicator histories, training
	// series, test values, derivation weights — comes from: every node's
	// series and training-window sum, read from the graph once per run
	// without materializing a node and dropped with the advisor.
	hist *derivation.TrainingSums

	alpha   float64
	gamma   float64
	candCap int // adaptive bound on ranked candidates per iteration
	indK    int // |I|: targets per local indicator

	errSum            float64 // running sum of node errors (uncovered = 1)
	err0              float64 // error of the initial one-model configuration
	rejectsSinceAlpha int
	alphaExhausted    bool
	iter              int
	rng               *rand.Rand

	lastSelTime  time.Duration
	lastEvalTime time.Duration

	// bfsFree is the free list of BFS scratches. Every ClosestNodes call
	// borrows one — rank's goroutines and probe planning — so at most
	// Parallelism ever exist, and a run's allocations do not depend on which
	// nodes the probes drew. A plain list, not a sync.Pool: the garbage
	// collector empties a pool whenever it likes.
	bfsMu   sync.Mutex
	bfsFree []*cube.BFSScratch

	fits []fitResult // evaluate's, one per fit goroutine, reused with their wins

	// met holds the atomic per-phase counters behind Advisor.Metrics.
	met advisorMetrics
}

// Run executes the advisor until a stop criterion fires and returns the
// final configuration.
func Run(g *cube.Graph, opts Options) (*Configuration, error) {
	a, err := NewAdvisor(g, opts)
	if err != nil {
		return nil, err
	}
	for {
		done, err := a.Step()
		if err != nil {
			return a.Configuration(), err
		}
		if done {
			return a.Configuration(), nil
		}
	}
}

// Close does nothing: the advisor owns no goroutine or resource between
// Steps. It exists only because the frozen bench/stack.go calls it, and goes
// with the next thaw of bench/ (ROADMAP).
func (a *Advisor) Close() {}

// NewAdvisor initializes the advisor: it splits the series, derives the
// indicator size |I| and the initial γ, creates the initial configuration
// holding a single model at the top node (as in the running example of
// Figure 4) and seeds all indicators.
func NewAdvisor(g *cube.Graph, opts Options) (*Advisor, error) {
	opts = opts.withDefaults()
	trainLen := TrainLen(g.Length)
	if trainLen < 2 {
		return nil, fmt.Errorf("core: series too short: %d observations", g.Length)
	}
	a := &Advisor{
		g:         g,
		opts:      opts,
		cfg:       NewConfiguration(g, trainLen),
		locals:    make(map[int]*indicator.Local),
		candLoc:   make(map[int]*indicator.Local),
		global:    indicator.NewGlobal(g.NumNodes()),
		modelFc:   make(map[int][]float64),
		warmSeeds: make(map[warmKey][]float64),
		rejected:  make(map[int]bool),
		ids:       make([]int, g.NumNodes()),
		alpha:     opts.Alpha0,
		rng:       rand.New(rand.NewSource(opts.Seed)),
		fits:      make([]fitResult, opts.Parallelism),
		hist:      derivation.NewTrainingSums(g, trainLen),
	}
	for i := range a.ids {
		a.ids[i] = i
	}
	if a.opts.Indicator.HistoryLen <= 0 || a.opts.Indicator.HistoryLen > trainLen {
		a.opts.Indicator.HistoryLen = trainLen
	}

	// Derive |I| (Section IV-C.1): either a fixed fraction of the graph,
	// or from the memory budget so that locals for a generous number of
	// nodes fit.
	n := g.NumNodes()
	switch {
	case opts.IndicatorFraction > 0:
		a.indK = int(math.Ceil(opts.IndicatorFraction * float64(n-1)))
	default:
		holders := n
		if holders > 1024 {
			holders = 1024
		}
		a.indK = indicatorEntries / holders
	}
	if a.indK < 1 {
		a.indK = 1
	}
	if a.indK > n-1 {
		a.indK = n - 1
	}

	// Initial γ: assume normally distributed indicator values and choose
	// γ so that the expected number of positive candidates roughly
	// equals the number of processors (Section IV-C.1).
	if opts.Gamma0 != 0 {
		a.gamma = opts.Gamma0
	} else {
		frac := float64(opts.Parallelism) / float64(n)
		if frac >= 0.5 {
			a.gamma = 0
		} else {
			a.gamma = optimize.InvNormCDF(1 - frac)
		}
	}
	a.candCap = 2 * opts.Parallelism

	// Start with all nodes uncovered (worst error), then install the
	// initial model at the top node.
	a.errSum = float64(n)
	if err := a.installInitialModel(); err != nil {
		return nil, err
	}
	// The initial error anchors the error/cost normalization of the
	// acceptance criterion (eq. 8): error enters relative to the initial
	// configuration, costs relative to modeling the whole graph, making
	// both dimensionless and comparable across data sets.
	a.err0 = a.configError()
	if a.err0 < 1e-9 {
		a.err0 = 1e-9
	}
	return a, nil
}

// Configuration returns the advisor's current configuration. The advisor
// may be interrupted at any time and the configuration stays valid
// (anytime property, Section III-A).
//
// Emitting it first drops every model that no scheme names as a source.
// Such a model is left behind when the schemes that used it — its own
// node's included — all moved to better sources: removing it changes no
// node's error and lowers the cost, so the acceptance rule (eq. 8) always
// favours the removal, but tryDeletion examines one victim per iteration
// and may never reach it. An engine would carry it as a model no query
// touches, and so never lazily re-estimates.
func (a *Advisor) Configuration() *Configuration {
	a.sweepUnusedModels()
	return a.cfg
}

// sweepUnusedModels removes the models no scheme reads. While some node
// still has no scheme (one no model could be evaluated for, which the engine
// resolves at Open from whatever models exist, Configuration.ResolveScheme)
// every model is a potential source, so nothing is swept.
func (a *Advisor) sweepUnusedModels() {
	if len(a.cfg.Schemes) < a.g.NumNodes() {
		return
	}
	used := make(map[int]bool, len(a.cfg.Models))
	for _, sc := range a.cfg.Schemes {
		for _, s := range sc.Sources {
			used[s] = true
		}
	}
	swept := false
	for id := range a.cfg.Models {
		if !used[id] {
			a.removeModel(id)
			swept = true
		}
	}
	if swept {
		a.global = indicator.Rebuild(a.g.NumNodes(), a.locals)
	}
}

// removeModel deletes the model at id from the configuration and from the
// advisor's per-model state. The caller rebuilds the global indicator.
func (a *Advisor) removeModel(id int) {
	a.cfg.CostSeconds -= a.cfg.ModelSeconds[id]
	delete(a.cfg.ModelSeconds, id)
	delete(a.cfg.Models, id)
	delete(a.modelFc, id)
	delete(a.locals, id)
}

// Alpha returns the current acceptance parameter α.
func (a *Advisor) Alpha() float64 { return a.alpha }

// IndicatorSize returns the derived |I| (targets per local indicator).
func (a *Advisor) IndicatorSize() int { return a.indK }

// testValues returns the evaluation part of a node's series.
func (a *Advisor) testValues(id int) []float64 {
	return a.hist.NodeValues(id)[a.cfg.TrainLen:]
}

// configError returns the mean configuration error, in O(1) from the running
// error sum: an O(N) scan per iteration would defeat the sub-linear pipeline
// on large cubes.
func (a *Advisor) configError() float64 {
	return a.errSum / float64(a.g.NumNodes())
}

// currentErr returns the node's error under the current configuration,
// counting uncovered nodes with the worst SMAPE.
func (a *Advisor) currentErr(id int) float64 {
	if e, ok := a.cfg.Errors[id]; ok {
		return e
	}
	return 1
}

// setScheme assigns a scheme and error to a node, maintaining the running
// error sum.
func (a *Advisor) setScheme(sc derivation.Scheme, err float64) {
	a.errSum += err - a.currentErr(sc.Target)
	a.cfg.Schemes[sc.Target] = sc
	a.cfg.Errors[sc.Target] = err
}

// fitWithFallback fits the configured model family on the training part of
// the node's series, degrading to simpler families when that series is too
// short for the requested one (Configuration.FitWithFallback). A Fit only
// reads its series.
func (a *Advisor) fitWithFallback(id int) (forecast.Model, time.Duration, error) {
	train := a.hist.NodeValues(id)[:a.cfg.TrainLen:a.cfg.TrainLen]
	m, d, err := a.cfg.FitWithFallback(a.opts.ModelFactory, timeseries.New(train, a.g.Period), a.opts.CreationDelay,
		func(m forecast.Model) { a.warmStart(id, m) })
	if err != nil {
		return nil, d, fmt.Errorf("core: no model family fits node %d: %w", id, err)
	}
	return m, d, nil
}

// warmKey identifies a warm seed: the node whose series was fitted and the
// model family the parameters belong to.
type warmKey struct {
	node   int
	family string
}

// warmStart seeds a freshly built model's optimizer from the node's previous
// fit of the same family, when one exists. The seed is one-shot and guarded
// by the model's own fallback rule, so a stale seed costs at most a bounded
// warm probe before the cold search runs anyway.
func (a *Advisor) warmStart(id int, m forecast.Model) {
	if ws, ok := m.(forecast.WarmStarter); ok {
		if seed, ok := a.warmSeeds[warmKey{id, m.Name()}]; ok {
			ws.WarmStart(seed)
		}
	}
}

// recordSeed stores a fitted model's parameters as the warm seed for a
// future re-fit of the same node and family. Callers must be on a
// sequential path (never inside evaluate's parallel fit goroutines).
func (a *Advisor) recordSeed(id int, m forecast.Model) {
	if ws, ok := m.(forecast.WarmStarter); ok {
		if p := ws.Params(); p != nil {
			a.warmSeeds[warmKey{id, m.Name()}] = p
		}
	}
}

// installInitialModel creates the first model at the top node, derives every
// node from it (disaggregation, Figure 3c) and seeds the indicators.
func (a *Advisor) installInitialModel() error {
	top := a.g.TopID
	m, dur, err := a.fitWithFallback(top)
	if err != nil {
		return err
	}
	fc := make([]float64, a.cfg.TestLen())
	m.Forecast(fc)
	a.addModel(top, m, dur, fc, a.improvements(top, fc, a.ids, make([]reassignment, 0, len(a.ids))))
	return nil
}

// addModel inserts an accepted model into the configuration: stores it,
// caches its test forecast fc, merges its local indicator into the global
// one and assigns the improving single-source schemes wins — acceptModel's,
// exact because installing the model changes no other node's error.
func (a *Advisor) addModel(id int, m forecast.Model, dur time.Duration, fc []float64, wins []reassignment) {
	a.cfg.Models[id] = m
	a.recordSeed(id, m)
	secs := dur.Seconds()
	a.cfg.ModelSeconds[id] = secs
	a.cfg.CostSeconds += secs
	a.modelFc[id] = fc

	// Local indicator: reuse the ranked candidate's local when present.
	local, ok := a.candLoc[id]
	if !ok {
		local = a.computeLocal(id)
	}
	delete(a.candLoc, id)
	a.locals[id] = local
	a.global.Merge(local)

	// Direct scheme at the node itself.
	direct := derivation.Scheme{Target: id, Sources: a.ids[id : id+1 : id+1], K: 1, Kind: derivation.Direct}
	// A model node must always carry a scheme; keep the direct one even
	// when derivation from elsewhere was better so far.
	e := timeseries.SMAPE(a.testValues(id), fc)
	if _, has := a.cfg.Schemes[id]; !has || !math.IsNaN(e) && e < a.currentErr(id) {
		a.setScheme(direct, ClampErr(e))
	}

	a.reassign(wins)

	// Aggregation check (Figure 3b): if this model completes a child
	// hyper edge of one of its parents, evaluate the classical
	// aggregation scheme for that parent.
	for d, pid := range a.g.ParentsOf(id) {
		if pid < 0 {
			continue
		}
		edge := a.g.ChildrenAlong(pid, d)
		complete := true
		for _, c := range edge {
			if _, ok := a.cfg.Models[c]; !ok {
				complete = false
				break
			}
		}
		if !complete {
			continue
		}
		a.met.schemeEvals.Add(1)
		if ev, ok := a.evalScheme(pid, edge); ok && ev.err < a.currentErr(pid) {
			sc := a.mkScheme(pid, append([]int(nil), edge...), ev)
			sc.Kind = derivation.Aggregation
			a.setScheme(sc, ev.err)
		}
	}
}

// evaluation is the outcome of evaluating a scheme sources → t without
// building it: the derivation weight and the clamped test error. Tens of
// thousands are computed per run and all but a few lose to the node's
// current scheme, so a derivation.Scheme is built (mkScheme) only for a
// winner.
type evaluation struct {
	k, err float64
}

// mkScheme builds the scheme an evaluation of sources → t stands for. It
// keeps sources: the caller passes a slice the scheme may own or share.
func (a *Advisor) mkScheme(t int, sources []int, ev evaluation) derivation.Scheme {
	return derivation.Scheme{Target: t, Sources: sources, K: ev.k, Kind: derivation.Classify(a.g, t, sources)}
}

// evalSingleSource evaluates the generalized single-source scheme s → t
// with fc, the test forecast of a model at s.
func (a *Advisor) evalSingleSource(s, t int, fc []float64) (evaluation, bool) {
	src, fcs := [1]int{s}, [1][]float64{fc}
	return a.evalForecasts(t, src[:], fcs[:])
}

// evalScheme is evalForecasts over the sources' cached model forecasts.
func (a *Advisor) evalScheme(t int, sources []int) (evaluation, bool) {
	var buf [8][]float64
	fcs := buf[:0]
	for _, s := range sources {
		fc, ok := a.modelFc[s]
		if !ok {
			return evaluation{}, false
		}
		fcs = append(fcs, fc)
	}
	return a.evalForecasts(t, sources, fcs)
}

// evalForecasts evaluates sources → t, the sources forecasting fcs, on the
// test horizon: the weight k = h_t / Σ h_s over the training part, SMAPE on
// the test part (Section IV-B). It allocates nothing.
func (a *Advisor) evalForecasts(t int, sources []int, fcs [][]float64) (evaluation, bool) {
	k, err := derivation.Weight(a.hist, t, sources, a.cfg.TrainLen)
	if err != nil {
		return evaluation{}, false
	}
	sc := derivation.Scheme{Target: t, Sources: sources, K: k}
	e, err := sc.SMAPE(a.testValues(t), fcs)
	if err != nil || math.IsNaN(e) {
		return evaluation{}, false
	}
	return evaluation{k: k, err: ClampErr(e)}, true
}

// computeLocal builds the local indicator of a node over its |I| closest
// graph neighbors.
func (a *Advisor) computeLocal(id int) *indicator.Local {
	bfs := a.borrowBFS()
	defer a.returnBFS(bfs)
	l := indicator.ComputeLocal(a.hist, id, a.g.ClosestNodes(bfs, id, a.indK), a.opts.Indicator)
	a.met.indicatorCells.Add(int64(len(l.Targets) - 1)) // every target but the source itself
	return l
}

// borrowBFS takes a BFS scratch off the free list, or makes one.
func (a *Advisor) borrowBFS() *cube.BFSScratch {
	a.bfsMu.Lock()
	defer a.bfsMu.Unlock()
	if n := len(a.bfsFree); n > 0 {
		s := a.bfsFree[n-1]
		a.bfsFree = a.bfsFree[:n-1]
		return s
	}
	return new(cube.BFSScratch)
}

// returnBFS puts a borrowed scratch back; whatever ClosestNodes returned
// from it is dead from here on.
func (a *Advisor) returnBFS(s *cube.BFSScratch) {
	a.bfsMu.Lock()
	a.bfsFree = append(a.bfsFree, s)
	a.bfsMu.Unlock()
}

// ErrStopped is returned by Step after the advisor has already terminated.
var ErrStopped = errors.New("core: advisor already terminated")

// Step executes one full advisor iteration (candidate selection →
// evaluation → control → output) and reports whether a stop criterion
// fired.
func (a *Advisor) Step() (done bool, err error) {
	if a.alphaExhausted {
		return true, ErrStopped
	}
	a.iter++
	snap := Snapshot{Iteration: a.iter, Alpha: a.alpha, Gamma: a.gamma}

	// --- Phase 1: candidate selection -------------------------------
	selStart := time.Now()
	positives, negatives := a.preselect()
	ranked := a.rank(positives)
	snap.Candidates = len(ranked)
	a.lastSelTime = time.Since(selStart)
	a.met.selectionNanos.Add(a.lastSelTime.Nanoseconds())
	a.met.candidates.Add(int64(len(ranked)))

	// --- Phase 2: evaluation -----------------------------------------
	evalStart := time.Now()
	errBefore := a.configError()
	created, accepted, rejectedN := a.evaluate(ranked)
	deleted := 0
	if !a.opts.DisableDeletion {
		deleted = a.tryDeletion(negatives)
	}
	a.lastEvalTime = time.Since(evalStart)
	a.met.evalNanos.Add(a.lastEvalTime.Nanoseconds())
	a.met.modelsBuilt.Add(int64(created))
	a.met.accepted.Add(int64(accepted))
	a.met.rejected.Add(int64(rejectedN))
	a.met.deleted.Add(int64(deleted))
	snap.Created, snap.Accepted, snap.Rejected, snap.Deleted = created, accepted, rejectedN, deleted

	// --- Phase 3: control --------------------------------------------
	ctlStart := time.Now()
	improvement := errBefore - a.configError()
	a.control(len(ranked), accepted, rejectedN, improvement)
	a.multiSourceProbes()
	a.met.controlNanos.Add(time.Since(ctlStart).Nanoseconds())
	a.met.iterations.Add(1)

	// --- Phase 4: output ----------------------------------------------
	snap.Error = a.configError()
	snap.Models = a.cfg.NumModels()
	snap.CostSeconds = a.cfg.CostSeconds
	snap.SelectionTime = a.lastSelTime
	snap.EvalTime = a.lastEvalTime
	if a.opts.OnIteration != nil {
		a.opts.OnIteration(snap)
	}
	return a.shouldStop(len(positives)), nil
}

// preselect implements eq. 5 and 6: positive candidates are nodes whose
// global indicator exceeds E(I) + γ·σ(I); negative candidates are nodes
// with an indicator of zero (i.e. nodes carrying a model).
func (a *Advisor) preselect() (positives, negatives []int) {
	mean, std := a.global.MeanStd()
	threshold := mean + a.gamma*std
	for id, v := range a.global.Values {
		if _, hasModel := a.cfg.Models[id]; hasModel {
			if v == 0 {
				negatives = append(negatives, id)
			}
			continue
		}
		if a.rejected[id] {
			continue
		}
		if v > threshold {
			positives = append(positives, id)
		}
	}
	return positives, negatives
}

// rank orders the positive candidates by expected benefit: each candidate
// gets a local indicator (cached across iterations) and candidates are
// sorted by the global-indicator sum that would result from merging it —
// lowest first (Section IV-A.2). The candidate set is truncated to the
// adaptive cap before the (expensive) local-indicator computation; the
// truncation keeps the worst-covered nodes, which are the ones preselection
// targets.
func (a *Advisor) rank(positives []int) []int {
	if len(positives) == 0 {
		return nil
	}
	sort.Slice(positives, func(i, j int) bool {
		vi, vj := a.global.Values[positives[i]], a.global.Values[positives[j]]
		if vi != vj {
			return vi > vj
		}
		return positives[i] < positives[j]
	})
	if len(positives) > a.candCap {
		positives = positives[:a.candCap]
	}

	// Compute missing locals in parallel — indicator creation is the
	// dominant cost of the selection phase. The missing set is collected
	// first so the goroutines never race with map reads.
	var missing []int
	for _, id := range positives {
		if _, ok := a.candLoc[id]; !ok {
			missing = append(missing, id)
		}
	}
	computed := make([]*indicator.Local, len(missing))
	var wg sync.WaitGroup
	sem := make(chan struct{}, a.opts.Parallelism)
	for i, id := range missing {
		wg.Add(1)
		sem <- struct{}{}
		go func(i, id int) {
			defer wg.Done()
			defer func() { <-sem }()
			computed[i] = a.computeLocal(id)
		}(i, id)
	}
	wg.Wait()
	for i, id := range missing {
		a.candLoc[id] = computed[i]
	}

	type scored struct {
		id  int
		sum float64
	}
	scoredList := make([]scored, len(positives))
	for i, id := range positives {
		scoredList[i] = scored{id: id, sum: a.global.MergedSum(a.candLoc[id])}
	}
	sort.Slice(scoredList, func(i, j int) bool {
		if scoredList[i].sum != scoredList[j].sum {
			return scoredList[i].sum < scoredList[j].sum
		}
		return scoredList[i].id < scoredList[j].id
	})
	out := make([]int, len(scoredList))
	for i, s := range scoredList {
		out[i] = s.id
	}
	return out
}

// evaluate creates models for the top-n ranked candidates in parallel
// (n bounded by the processor count, Section IV-B.1) and applies the
// acceptance criterion (eq. 7/8) to each in rank order.
func (a *Advisor) evaluate(ranked []int) (created, accepted, rejected int) {
	n := min(a.opts.Parallelism, len(ranked))
	if n == 0 {
		return 0, 0, 0
	}

	// Each goroutine fits its candidate and evaluates the single-source
	// schemes over its local indicator (rank left it in candLoc) against the
	// errors as they stand: acceptance in rank order only lowers errors, so a
	// scheme that loses now loses then.
	results := a.fits[:n]
	var wg sync.WaitGroup
	for i, id := range ranked[:n] {
		wg.Add(1)
		go func(r *fitResult, id int) {
			defer wg.Done()
			*r = fitResult{id: id, wins: r.wins[:0]}
			if r.m, r.dur, r.err = a.fitWithFallback(id); r.err == nil {
				r.fc = make([]float64, a.cfg.TestLen())
				r.m.Forecast(r.fc)
				r.wins = a.improvements(id, r.fc, a.candLoc[id].Targets, r.wins)
			}
		}(&results[i], id)
	}
	wg.Wait()

	for i := range results {
		r := &results[i]
		if a.opts.MaxModels > 0 && a.cfg.NumModels() >= a.opts.MaxModels {
			break // model budget exhausted mid-iteration
		}
		if r.err != nil {
			a.rejected[r.id] = true
			rejected++
			continue
		}
		// Seed regardless of acceptance: a candidate rejected by eq. 8 may
		// be re-selected after the α schedule moves, and its re-fit then
		// warm-starts from this fit's optimum.
		a.recordSeed(r.id, r.m)
		created++
		if a.acceptModel(r) {
			accepted++
		} else {
			rejected++
			a.rejectsSinceAlpha++
		}
	}
	return created, accepted, rejected
}

// fitResult is a candidate fitted by evaluate: its model or fit error, test
// forecast and the single-source schemes that beat the errors before.
type fitResult struct {
	id   int
	m    forecast.Model
	dur  time.Duration
	err  error
	fc   []float64
	wins []reassignment
}

// improvements evaluates the single-source scheme s → t, fc forecasting s,
// for every target t but s and appends to wins those that beat t's current
// error. It only reads the advisor: the fit goroutines run it side by side.
func (a *Advisor) improvements(s int, fc []float64, targets []int, wins []reassignment) []reassignment {
	for _, t := range targets {
		if t == s {
			continue
		}
		if ev, ok := a.evalSingleSource(s, t, fc); ok && ev.err < a.currentErr(t) {
			wins = append(wins, reassignment{t, s, ev})
		}
	}
	a.met.schemeEvals.Add(int64(len(targets) - 1)) // every target holds s once
	return wins
}

// acceptModel evaluates the real benefit of the fitted model and applies
// the generalized acceptance criterion (eq. 8). On acceptance the model is
// installed; on rejection with no error improvement at all, the node is
// marked so it is never selected again (Section IV-B.2).
func (a *Advisor) acceptModel(r *fitResult) bool {
	id := r.id
	// Candidate error sum: apply all improving schemes hypothetically.
	newErrSum := a.errSum
	if e := timeseries.SMAPE(a.testValues(id), r.fc); !math.IsNaN(e) {
		if ce := ClampErr(e); ce < a.currentErr(id) {
			newErrSum += ce - a.currentErr(id)
		}
	}
	wins := r.wins[:0]
	for _, w := range r.wins {
		if cur := a.currentErr(w.target); w.ev.err < cur {
			newErrSum += w.ev.err - cur
			wins = append(wins, w)
		}
	}

	nodes := float64(a.g.NumNodes())
	errOld := a.errSum / nodes / a.err0
	errNew := newErrSum / nodes / a.err0
	costOld := a.normalizedCost(a.cfg.NumModels())
	costNew := a.normalizedCost(a.cfg.NumModels() + 1)

	if a.alpha*errNew+(1-a.alpha)*costNew < a.alpha*errOld+(1-a.alpha)*costOld {
		a.addModel(id, r.m, r.dur, r.fc, wins)
		return true
	}
	if errNew >= errOld {
		a.rejected[id] = true
	}
	return false
}

// normalizedCost maps the configuration cost into [0, 1] so it is
// comparable with the SMAPE-based error in eq. 8: the model count over the
// graph size, the proxy the paper's Figure 7 reports ("the number of models
// in the final configuration representing the model costs").
func (a *Advisor) normalizedCost(models int) float64 {
	return float64(models) / float64(a.g.NumNodes())
}

// tryDeletion examines the lowest-benefit model (the first of the ranked
// negative candidates) and removes it when the acceptance criterion favors
// the cheaper configuration (Section IV-B.2, "removes nodes that have been
// added too greedy").
func (a *Advisor) tryDeletion(negatives []int) int {
	if len(negatives) == 0 || a.cfg.NumModels() <= 1 {
		return 0
	}
	// Rank ascending by contribution to the current global indicator:
	// the benefit of model m is how much coverage it provides as the
	// argmin source.
	benefit := make(map[int]float64, len(negatives))
	for _, id := range negatives {
		benefit[id] = 0
	}
	for t, src := range a.global.Source {
		if src < 0 {
			continue
		}
		if _, ok := benefit[src]; ok {
			benefit[src] += indicator.Worst - a.global.Values[t]
		}
	}
	sort.Slice(negatives, func(i, j int) bool {
		bi, bj := benefit[negatives[i]], benefit[negatives[j]]
		if bi != bj {
			return bi < bj
		}
		return negatives[i] < negatives[j]
	})

	victim := negatives[0]
	reassign, newErrSum, ok := a.planRemoval(victim)
	if !ok {
		return 0
	}
	nodes := float64(a.g.NumNodes())
	errOld := a.errSum / nodes / a.err0
	errNew := newErrSum / nodes / a.err0
	costOld := a.normalizedCost(a.cfg.NumModels())
	costNew := a.normalizedCost(a.cfg.NumModels() - 1)
	if a.alpha*errNew+(1-a.alpha)*costNew >= a.alpha*errOld+(1-a.alpha)*costOld {
		return 0
	}

	a.removeModel(victim)
	a.global = indicator.Rebuild(a.g.NumNodes(), a.locals)
	a.reassign(reassign)
	return 1
}

// reassignment re-derives target from the single source whose evaluation
// is ev; the scheme is built only when it is applied (reassign).
type reassignment struct {
	target, source int
	ev             evaluation
}

func (a *Advisor) reassign(rs []reassignment) {
	for _, r := range rs {
		a.setScheme(a.mkScheme(r.target, a.ids[r.source:r.source+1:r.source+1], r.ev), r.ev.err)
	}
}

// planRemoval computes, without mutating state, the scheme reassignments
// and resulting error sum if the model at victim were removed. Every node
// whose scheme references the victim is re-derived from the best remaining
// model (single-source schemes over the cached forecasts).
func (a *Advisor) planRemoval(victim int) ([]reassignment, float64, bool) {
	var affected []int
	for t, sc := range a.cfg.Schemes {
		for _, s := range sc.Sources {
			if s == victim {
				affected = append(affected, t)
				break
			}
		}
	}
	sort.Ints(affected)
	newErrSum := a.errSum
	reassign := make([]reassignment, 0, len(affected))
	remaining := a.cfg.ModelIDs()
	for _, t := range affected {
		best := evaluation{err: math.Inf(1)}
		bestSource := -1
		a.met.schemeEvals.Add(int64(len(remaining) - 1)) // every model but the victim
		for _, s := range remaining {
			if s == victim {
				continue
			}
			if ev, ok := a.evalSingleSource(s, t, a.modelFc[s]); ok && ev.err < best.err {
				best, bestSource = ev, s
			}
		}
		if bestSource < 0 {
			// A node would become unanswerable; veto the deletion.
			return nil, 0, false
		}
		newErrSum += best.err - a.currentErr(t)
		reassign = append(reassign, reassignment{target: t, source: bestSource, ev: best})
	}
	return reassign, newErrSum, true
}

// shouldStop evaluates the stop criteria of Section IV-D.
func (a *Advisor) shouldStop(positives int) bool {
	if a.alpha > a.opts.AlphaMax {
		a.alphaExhausted = true
		return true
	}
	if a.opts.MaxIterations > 0 && a.iter >= a.opts.MaxIterations {
		return true
	}
	if a.opts.TargetError > 0 && a.configError() <= a.opts.TargetError {
		return true
	}
	if a.opts.MaxModels > 0 && a.cfg.NumModels() >= a.opts.MaxModels {
		return true
	}
	if positives == 0 && a.alpha >= a.opts.AlphaMax &&
		(a.opts.FixedGamma || a.gamma <= -2+1e-9) {
		// Nothing left to examine even with a fully widened preselection
		// net (or a pinned one), and α cannot grow further.
		a.alphaExhausted = true
		return true
	}
	return false
}

// ClampErr maps a SMAPE onto a node's error in [0, 1]: an undefined (NaN)
// error counts as the worst, 1. The advisor and every baseline clamp through
// it.
func ClampErr(e float64) float64 {
	if math.IsNaN(e) {
		return 1
	}
	if e < 0 {
		return 0
	}
	if e > 1 {
		return 1
	}
	return e
}
