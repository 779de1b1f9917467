package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/f2db"
	"cubefc/internal/fclient"
	"cubefc/internal/wire"
)

const (
	closedClients = 2         // closed-loop clients per workload: this box has two cores
	openWorkers   = 8         // goroutines pipelining open-loop reads over one connection
	lateNanos     = 2_000_000 // two timer ticks: later than that, the generator itself fell behind

	// Warm-up is a fixed amount of work, not a fixed time, so that the
	// state the timed phase starts from (cache contents, series lengths,
	// live heap) is the same on every run and every machine.
	warmHotOps     = 20_000 // per client
	warmColdOps    = 6_000  // per client: fills every cache to capacity
	warmTimePoints = 6
	warmAdvisor    = 1 // on top of the run that is part of set-up

	// setupBuilds set-ups are made and timed per run, each exactly as the
	// run needs it; the run uses the last and setup_s is their median.
	setupBuilds = 7
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // where a traced run leaves trace-<workload>.jsonl
	dir      string // scratch directory below out, made and removed by run: the durable directories
	// Cube sizes, and the divisor of the warm-up work: the constants of
	// stack.go and 1, except in tests.
	servingNodes, advisorNodes int
	warmDiv                    int
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// usage is the process's cumulative CPU time and allocation count.
type usage struct {
	cpu     time.Duration
	mallocs uint64
}

func (a usage) minus(b usage) usage { return usage{a.cpu - b.cpu, a.mallocs - b.mallocs} }

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
	}
}

// liveHeap is the heap still reachable after two collections, in bytes.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// phase is what one stretch of load produced.
type phase struct {
	ops       [][]sample // the operation the workload's user waits on, per client
	writes    [][]sample // mixed-rw: the writer's INSERT statements
	attempted int
	failed    int
	late      int // open loop: reads the dispatcher released more than lateNanos after they were due
	// paused is what the harness itself used while the clock of the phase
	// stood still (mixed-rw, between cycles); it is not the program's.
	paused usage
}

func (p *phase) count() (n int) {
	for _, c := range p.ops {
		n += len(c)
	}
	return n
}

// serving drives one of the four serving workloads against a stack.
type serving struct {
	cfg config
	st  *stack
	pl  *plan

	readers []*fclient.Client // closed loop: one per client; open loop: one pipelined connection
	writers []*fclient.Client
	probe   *fclient.Client // correctness probes, serial replay, pings
	pos     []int           // per closed-loop reader: position in its sequence
	points  int             // time points applied so far, warm-up included
}

func strategyFor(workload string) f2db.InvalidationStrategy {
	if workload == wlMixedRW {
		return f2db.TimeBased{Every: 8} // the daemon's default
	}
	return f2db.Never{}
}

func newServing(cfg config, st *stack) (*serving, error) {
	r := &serving{cfg: cfg, st: st}
	r.pl = buildPlan(st.g, cfg.workload, cfg.seed, closedClients, mixedWarmNanos/int64(cfg.warmDiv), int64(cfg.duration()))
	nr, nw := 0, 0
	switch cfg.workload {
	case wlReadHot, wlReadCold:
		nr = closedClients
	case wlIngest:
		nw = closedClients
	case wlMixedRW:
		nr, nw = 1, 1
	}
	for i := 0; i < nr+nw+1; i++ {
		cl, err := dial(st.frontAddr)
		if err != nil {
			r.close()
			return nil, err
		}
		switch {
		case i < nr:
			r.readers = append(r.readers, cl)
		case i < nr+nw:
			r.writers = append(r.writers, cl)
		default:
			r.probe = cl
		}
	}
	r.pos = make([]int, nr)
	return r, nil
}

func (r *serving) close() {
	for _, cl := range append(append(r.readers, r.writers...), r.probe) {
		if cl != nil {
			cl.Close()
		}
	}
}

// readPhase runs the closed-loop readers until each has done count
// statements (count > 0) or until d has passed.
func (r *serving) readPhase(count int, d time.Duration) phase {
	ph := phase{ops: make([][]sample, len(r.readers))}
	var failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := range r.readers {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			seq, cl := r.pl.reads[c], r.readers[c]
			var buf []sample
			for n := 0; count == 0 || n < count; n++ {
				sql := r.pl.stmts[seq[r.pos[c]%len(seq)]]
				r.pos[c]++
				t := time.Now()
				_, err := cl.Query(sql)
				end := time.Now()
				if err != nil {
					failed.Add(1)
				}
				buf = append(buf, sample{done: int64(end.Sub(start)), lat: int64(end.Sub(t)), units: 1})
				if count == 0 && end.Sub(start) >= d {
					break
				}
			}
			ph.ops[c] = buf
		}(c)
	}
	wg.Wait()
	ph.attempted, ph.failed = ph.count(), int(failed.Load())
	return ph
}

// applyPoint executes one full time point, its statements dealt
// round-robin to the writers, and returns when every statement is
// acknowledged: the engine advances time only when every base series has
// its value, so the next time point may not begin earlier.
func (r *serving) applyPoint(start time.Time, bufs [][]sample, failed *atomic.Int64) {
	stmts := r.pl.writes[r.points%len(r.pl.writes)]
	var wg sync.WaitGroup
	for w := range r.writers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(stmts); j += len(r.writers) {
				t := time.Now()
				err := r.writers[w].Exec(stmts[j])
				end := time.Now()
				if err != nil {
					failed.Add(1)
				}
				bufs[w] = append(bufs[w], sample{
					done: int64(end.Sub(start)), lat: int64(end.Sub(t)),
					units: int32(min(insertRows, len(r.st.g.BaseIDs)-j*insertRows)),
				})
			}
		}(w)
	}
	wg.Wait()
	r.points++
}

// ingestPhase applies time points back to back: count of them (count > 0)
// or as many as begin before d has passed.
func (r *serving) ingestPhase(count int, d time.Duration) phase {
	ph := phase{ops: make([][]sample, len(r.writers))}
	var failed atomic.Int64
	start := time.Now()
	for n := 0; (count > 0 && n < count) || (count == 0 && time.Since(start) < d); n++ {
		r.applyPoint(start, ph.ops, &failed)
	}
	ph.attempted, ph.failed = ph.count(), int(failed.Load())
	return ph
}

// mixedPhase offers the open-loop read schedule while one writer applies a
// full time point every mixedWriteEvery, one cycle per time point.
//
// Between two cycles the clock of the phase stands still while the harness
// settles the stack (see settle): lazy re-estimation only leaves replicas
// and twin bit-identical if every model is valid again when the next time
// point begins. The readers have the whole cycle to pay for the re-fits an
// advance made necessary — that cost on the read path is what the workload
// is for — and what the harness then mops up is no operation's latency and
// nobody's CPU time or allocation: it is kept in phase.paused and taken off.
func (r *serving) mixedPhase(arrivals []arrival, d time.Duration) (phase, error) {
	ph := phase{ops: make([][]sample, openWorkers), writes: make([][]sample, 1), attempted: len(arrivals)}
	for base := time.Duration(0); base < d; base += mixedWriteEvery {
		n := 0
		for n < len(arrivals) && arrivals[n].due < int64(base+mixedWriteEvery) {
			n++
		}
		r.mixedCycle(&ph, arrivals[:n], base)
		arrivals = arrivals[n:]
		u := readUsage()
		if err := r.st.settle(); err != nil {
			return ph, err
		}
		u = readUsage().minus(u)
		ph.paused.cpu += u.cpu
		ph.paused.mallocs += u.mallocs
	}
	ph.attempted += len(ph.writes[0])
	return ph, nil
}

// mixedCycle runs one cycle of mixed-rw on the phase clock, which reads
// base when the cycle begins: the writer applies a time point at once and
// the reads due before the next one are offered as they come due. It
// returns when all of them are answered.
//
// This box's timers tick at about 1 ms (time.Sleep(50µs) returns after
// 1.04 ms), so a generator that slept until each arrival's own due time
// would add up to a tick of its own lateness to every read. Instead a
// dispatcher that no worker can block wakes on every tick and releases the
// arrivals that have come due. A read released within lateNanos of its due
// time is timed from its release; one released later than that was held up
// because the system under test starved the dispatcher of a core, and is
// timed from when it was due, as a client on another machine would have
// sent it. Either way a stall is charged to every read it delays — in the
// queue because all workers were stuck behind it, or on the connection
// behind another read.
func (r *serving) mixedCycle(ph *phase, arrivals []arrival, base time.Duration) {
	var failed, late atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(-base)
	type release struct {
		stmt int32
		due  int64
	}
	// Room for every arrival: the dispatcher must never wait for a worker.
	queue := make(chan release, len(arrivals))
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(queue)
		for i := 0; i < len(arrivals); {
			time.Sleep(200 * time.Microsecond) // returns on the next tick
			now := int64(time.Since(start))
			for ; i < len(arrivals) && arrivals[i].due <= now; i++ {
				stamp := now
				if now-arrivals[i].due > lateNanos {
					late.Add(1)
					stamp = arrivals[i].due
				}
				queue <- release{stmt: arrivals[i].stmt, due: stamp}
			}
		}
	}()
	for w := 0; w < openWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rel := range queue {
				_, err := r.readers[0].Query(r.pl.stmts[rel.stmt])
				end := int64(time.Since(start))
				if err != nil {
					failed.Add(1)
				}
				ph.ops[w] = append(ph.ops[w], sample{done: end, lat: end - rel.due, units: 1})
			}
		}(w)
	}
	r.applyPoint(start, ph.writes, &failed)
	wg.Wait()
	ph.failed += int(failed.Load())
	ph.late += int(late.Load())
}

// warm brings caches, series lengths and heap to the state the timed phase
// starts from.
func (r *serving) warm() error {
	var ph phase
	var err error
	switch r.cfg.workload {
	case wlReadHot:
		ph = r.readPhase(warmHotOps/r.cfg.warmDiv, 0)
	case wlReadCold:
		ph = r.readPhase(warmColdOps/r.cfg.warmDiv, 0)
	case wlIngest:
		ph = r.ingestPhase(warmTimePoints, 0)
	case wlMixedRW:
		ph, err = r.mixedPhase(r.pl.warmArrivals, mixedWarmNanos/time.Duration(r.cfg.warmDiv))
	}
	if err == nil && ph.failed > 0 {
		err = fmt.Errorf("bench: %d operations failed during warm-up", ph.failed)
	}
	return err
}

func (r *serving) timed(d time.Duration) (phase, error) {
	switch r.cfg.workload {
	case wlIngest:
		return r.ingestPhase(0, d), nil
	case wlMixedRW:
		return r.mixedPhase(r.pl.arrivals, d)
	}
	return r.readPhase(0, d), nil
}

// verify is the correctness gate: a twin engine that never saw a socket, a
// coordinator or a WAL is fed the acknowledged time points in order, and
// every probe statement must then come back from the stack with exactly
// the bytes the twin's answer encodes to.
func (r *serving) verify() (twin *f2db.DB, wrong int, err error) {
	twin, err = r.st.newEngine(engineOptions(r.st.strategy))
	if err != nil {
		return nil, 0, err
	}
	for p := 0; p < r.points; p++ {
		for _, sql := range r.pl.writes[p%len(r.pl.writes)] {
			if err := twin.Exec(sql); err != nil {
				return nil, 0, fmt.Errorf("bench: twin insert: %w", err)
			}
		}
		twin.ReestimateInvalid()
	}
	if err := r.st.settle(); err != nil {
		return nil, 0, err
	}
	for _, sql := range r.pl.probes {
		got, err := r.probe.Query(sql)
		if err != nil {
			return nil, 0, fmt.Errorf("bench: probe %q: %w", sql, err)
		}
		want, err := twin.Query(sql)
		if err != nil {
			return nil, 0, fmt.Errorf("bench: twin probe %q: %w", sql, err)
		}
		if !bytes.Equal(wire.AppendResult(nil, got), wire.AppendResult(nil, want)) {
			wrong++
		}
	}
	if wrong > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d of %d probe statements differ from the twin\n", wrong, len(r.pl.probes))
	}
	return twin, wrong, nil
}

// timeSetups makes the set-up setupBuilds times, each time as the run needs
// it, and returns the last stack with the median build time in seconds. The
// stacks before the last are closed and collected outside the timed part,
// so that every build starts from the heap of a fresh process. A traced
// run, which does not report setup_s, builds once.
func timeSetups(cfg config, rec *recorder) (*stack, float64, error) {
	builds := setupBuilds
	if cfg.trace {
		builds = 1
	}
	var times []float64
	for i := 1; ; i++ {
		t := time.Now()
		st, err := buildStack(filepath.Join(cfg.dir, "stack"), cfg.servingNodes, cfg.seed, strategyFor(cfg.workload), rec)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t).Seconds())
		if i == builds {
			return st, median(times), nil
		}
		if err := st.close(); err != nil {
			return nil, 0, err
		}
		runtime.GC()
	}
}

// timedSpan is the measured part of a run: the timed phase with the
// process-wide counters read on either side of it.
type timedSpan struct {
	d        time.Duration
	ph       phase
	w        windowed
	cpu      time.Duration // user+sys CPU of the whole process over the phase
	mallocs  uint64        // heap allocations of the whole process over the phase
	heap     float64       // live heap when the phase began, bytes
	heapGrow float64       // live heap growth over the phase, bytes
}

// measure runs body as the timed phase of length d.
func measure(d time.Duration, body func() (phase, error)) (timedSpan, error) {
	m := timedSpan{d: d, heap: liveHeap()}
	u0 := readUsage()
	ph, err := body()
	u1 := readUsage()
	u := u1.minus(u0).minus(ph.paused)
	m.ph, m.cpu, m.mallocs = ph, u.cpu, u.mallocs
	m.heapGrow = liveHeap() - m.heap
	m.w = windows(ph.ops, int64(d))
	return m, err
}

// endToEnd fills in the gated metrics: the ones that repeat from run to
// run on a shared two-core box. Time does not (README.md, "Why no time is
// gated"); throughput, latency and CPU per operation are per-layer
// metrics under client.* and are printed here as a comment.
func endToEnd(cfg config, res *result, m timedSpan, setup, smape float64, models int) {
	ops := float64(max(m.ph.count(), 1))
	res.set("setup_s", setup, "s")
	res.set("allocs_per_op", float64(m.mallocs)/ops, "count")
	res.set("heap_live_mb", m.heap/1e6, "MB")
	res.set("smape", smape, "ratio")
	res.set("models", float64(models), "count")
	fmt.Printf("# %s: %.6g units/s, op p50 %.6g us, %.6g cpu-us/op (not gated: see client.* with --trace 1)\n",
		cfg.workload, m.w.throughput, m.w.p50/1e3, float64(m.cpu)/1e3/ops)
}

// clientLayer reports the client's view of the timed phase of a traced
// run: the figures a user of the system waits on.
func clientLayer(res *result, m timedSpan) {
	ops := float64(max(m.ph.count(), 1))
	p999, maxLat := tail(m.ph.ops, 0.999)
	res.layer("client.throughput_per_s", m.w.throughput)
	res.layer("client.op_p50_us", m.w.p50/1e3)
	res.layer("client.op_p99_us", m.w.p99/1e3)
	res.layer("client.op_p999_us", p999/1e3)
	res.layer("client.op_max_us", maxLat/1e3)
	res.layer("client.cpu_us_per_op", float64(m.cpu)/1e3/ops)
	res.layer("client.heap_growth_b_per_op", (m.heapGrow-sampleBytes(m.ph))/ops)
}

func (cfg config) duration() time.Duration { return time.Duration(cfg.seconds * float64(time.Second)) }

// runServing runs one serving workload end to end.
func runServing(cfg config) (*result, error) {
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	st, setup, err := timeSetups(cfg, rec)
	if err != nil {
		return nil, err
	}
	defer st.close()
	r, err := newServing(cfg, st)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := r.warm(); err != nil {
		return nil, err
	}
	before := r.counters()
	m, err := measure(cfg.duration(), func() (phase, error) { return r.timed(cfg.duration()) })
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}, Attempted: m.ph.attempted, Failed: m.ph.failed}
	if !cfg.trace {
		endToEnd(cfg, res, m, setup, st.smape, st.models)
	} else if err := r.perLayer(res, m, r.counters().minus(before), rec); err != nil {
		return nil, err
	}
	twin, wrong, err := r.verify()
	if err != nil {
		return nil, err
	}
	res.Correct = wrong == 0
	if cfg.trace {
		err = r.boundaryProbes(res, twin)
	}
	return res, err
}

// advisorRun is one operation of the advisor workload.
type advisorRun struct {
	smape  float64
	models int
	met    core.AdvisorMetrics
}

func (a advisorRun) same(b advisorRun) bool {
	return a.smape == b.smape && a.models == b.models &&
		a.met.Candidates == b.met.Candidates && a.met.ModelsBuilt == b.met.ModelsBuilt
}

// advisorPhase runs the advisor back to back: count runs (count > 0) or
// until d has passed. Every run must reproduce the first one's error,
// model count, candidates examined and models built; a run that does not
// counts as failed.
func advisorPhase(g *cube.Graph, seed int64, count int, d time.Duration, rec *recorder) (phase, advisorRun, error) {
	ph := phase{ops: make([][]sample, 1)}
	var first, last advisorRun
	start := time.Now()
	for n := 0; (count > 0 && n < count) || (count == 0 && time.Since(start) < d); n++ {
		t := time.Now()
		ct := rec.begin()
		cfg, met, err := runAdvisor(g, seed, func(step func()) {
			st := rec.begin()
			step()
			rec.end("core.step", st, -1)
		})
		rec.end("client.run", ct, n)
		end := time.Now()
		if err != nil {
			return ph, last, err
		}
		last = advisorRun{smape: cfg.Error(), models: cfg.NumModels(), met: met}
		if n == 0 {
			first = last
		} else if !last.same(first) {
			ph.failed++
		}
		ph.ops[0] = append(ph.ops[0], sample{
			done: int64(end.Sub(start)), lat: int64(end.Sub(t)), units: int32(g.NumNodes()),
		})
	}
	ph.attempted = len(ph.ops[0])
	return ph, last, nil
}

// runAdvisorWorkload times repeated advisor runs over one graph. Set-up
// is generating the cube, building its hyper graph and the first advisor
// run over it, which fills the graph's lazily built indexes; every later
// run is the operation. Like the serving set-up it is made setupBuilds
// times and setup_s is the median.
func runAdvisorWorkload(cfg config) (*result, error) {
	var g *cube.Graph
	var setups []float64
	for i := 0; i < setupBuilds; i++ {
		runtime.GC()
		t := time.Now()
		var err error
		if g, err = newGraph(cfg.advisorNodes); err != nil {
			return nil, err
		}
		if _, _, err := runAdvisor(g, cfg.seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	if _, _, err := advisorPhase(g, cfg.seed, warmAdvisor, 0, nil); err != nil {
		return nil, err
	}
	var last advisorRun
	m, err := measure(cfg.duration(), func() (phase, error) {
		ph, l, err := advisorPhase(g, cfg.seed, 0, cfg.duration(), nil)
		last = l
		return ph, err
	})
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}, Attempted: m.ph.attempted, Failed: m.ph.failed}
	res.Correct = m.ph.failed == 0
	if !cfg.trace {
		endToEnd(cfg, res, m, median(setups), last.smape, last.models)
		return res, nil
	}
	return res, advisorLayers(cfg, res, g, m, last)
}

func run(cfg config) (*result, error) {
	cfg.dir = filepath.Join(cfg.out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.dir)
	if cfg.workload == wlAdvisor {
		return runAdvisorWorkload(cfg)
	}
	return runServing(cfg)
}
