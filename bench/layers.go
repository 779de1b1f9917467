package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
	"unsafe"

	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/datasets"
	"cubefc/internal/f2db"
	"cubefc/internal/forecast"
	"cubefc/internal/segment"
	"cubefc/internal/wire"
)

// perLayerUnits names every per-layer metric and its unit. A traced run
// reports all of them on every workload; one that does not apply there
// (segment.* on a read-only workload, core.* timings the stack does not
// exercise) reads 0.
var perLayerUnits = map[string]string{
	// load generator and client
	"loadgen.late_frac": "ratio", "loadgen.achieved_over_offered": "ratio",
	"client.throughput_per_s": "1/s", "client.op_p50_us": "us", "client.cpu_us_per_op": "us",
	"client.op_p99_us": "us", "client.op_p999_us": "us", "client.op_max_us": "us",
	"client.write_p50_us": "us", "client.write_p99_us": "us",
	"client.disk_kb": "KB", "client.heap_growth_b_per_op": "B",
	// fclient + wire + server: the front hop
	"net.front_self_us": "us", "net.shard_hop_us": "us", "net.ping_rtt_us": "us",
	"wire.encode_result_ns": "ns", "wire.decode_result_ns": "ns", "wire.result_bytes": "B",
	"server.requests": "count", "server.errors": "count",
	// coord
	"coord.self_us": "us", "coord.query_hit_ns": "ns", "coord.query_miss_us": "us",
	"coord.cache_hit_rate": "ratio", "coord.route_memo_hit_rate": "ratio",
	"coord.coalesced": "count", "coord.invalidations": "count", "coord.fanout_width_mean": "count",
	"coord.failovers": "count", "coord.epoch_global_bumps": "count",
	// f2db read path
	"f2db.normalize_ns": "ns", "f2db.route_ns": "ns", "f2db.query_hit_ns": "ns", "f2db.query_miss_ns": "ns",
	"f2db.query_self_us": "us", "f2db.plan_hit_rate": "ratio", "f2db.memo_hit_rate": "ratio",
	"f2db.memo_bypasses": "count", "f2db.epoch_bumps": "count",
	// f2db write path and maintenance
	"f2db.exec_self_us": "us", "f2db.insert_batch_us": "us", "f2db.durable_batch_us": "us",
	"f2db.stripe_contention": "count", "f2db.reestimations": "count", "f2db.reestimate_ms": "ms",
	"f2db.gen_retries": "count", "f2db.recovery_s": "s", "f2db.snapshot_kb": "KB",
	// segment
	"segment.wal_append_sync_us": "us", "segment.wal_append_nosync_us": "us",
	"segment.fsyncs_per_batch": "count", "segment.wal_bytes_per_row": "B",
	"segment.write_calls_per_batch": "count", "segment.compactions": "count",
	"segment.compact_ms": "ms", "segment.segment_bytes_per_row": "B",
	// core, cube, forecast
	"core.select_ms": "ms", "core.eval_ms": "ms", "core.control_ms": "ms",
	"core.candidates": "count", "core.models_built": "count", "core.iterations": "count",
	"cube.graph_build_ms": "ms", "forecast.fit_cold_us": "us", "forecast.fit_warm_us": "us",
	// the trace itself
	"trace.overhead_frac": "ratio", "trace.budget_gap_frac": "ratio",
}

// zeroLayers gives every per-layer metric its unit and the value 0.
func zeroLayers(res *result) {
	for name, unit := range perLayerUnits {
		res.set(name, 0, unit)
	}
}

// layer overwrites one per-layer metric, keeping its declared unit.
func (r *result) layer(name string, v float64) {
	unit, ok := perLayerUnits[name]
	if !ok {
		panic("bench: undeclared per-layer metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.set(name, v, unit)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counters is a flat snapshot of the public counters of every layer.
// Engine and segment figures are shard 0's: the replicas do the same
// maintenance work and each serves its own half of the query space.
type counters map[string]float64

func (r *serving) counters() counters {
	co, fm := r.st.co.Metrics(), r.st.front.Metrics()
	sh := r.st.shards[0]
	dm := sh.dur.DB().Metrics()
	c := counters{
		"co.hits": float64(co.CacheHits.Load()), "co.misses": float64(co.CacheMisses.Load()),
		"co.coalesced": float64(co.CacheCoalesced.Load()), "co.invalidations": float64(co.CacheInvalidations.Load()),
		"co.routehits": float64(co.RouteMemoHits.Load()), "co.queries": float64(co.Queries.Load()),
		"co.fanouts": float64(co.Fanouts.Load()), "co.subqueries": float64(co.FanoutSubqueries.Load()),
		"co.failovers": float64(co.Failovers.Load()), "co.global": float64(co.EpochGlobalBumps.Load()),
		"srv.requests": float64(fm.Queries.Load() + fm.Execs.Load() + fm.Pings.Load() + fm.StatsReqs.Load() + fm.InfoReqs.Load()),
		"srv.errors":   float64(fm.Errors.Load()),
		"db.planhits":  float64(dm.PlanCacheHits), "db.planmisses": float64(dm.PlanCacheMisses),
		"db.memohits": float64(dm.ForecastCacheHits), "db.memomisses": float64(dm.ForecastCacheMisses),
		"db.bypasses": float64(dm.ForecastCacheBypasses), "db.epochbumps": float64(dm.EpochBumps),
		"db.reestimations": float64(dm.Reestimations), "db.genretries": float64(dm.ReestimateGenRetries),
		"db.batches": float64(dm.Batches), "db.inserts": float64(dm.Inserts),
		"db.walbytes": float64(dm.WALBytes), "db.compactions": float64(dm.SegmentCompactions),
		"db.segbytes": float64(dm.SegmentBytes),
	}
	for _, n := range dm.StripeContention {
		c["db.contention"] += float64(n)
	}
	if sh.fs != nil {
		c["fs.writes"], c["fs.syncs"] = float64(sh.fs.writes.Load()), float64(sh.fs.syncs.Load())
	}
	return c
}

func (a counters) minus(b counters) counters {
	out := make(counters, len(a))
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

// perLayer reports what the timed phase of a traced run shows about each
// layer: the client-side tail and the deltas of every public counter.
// Then it replays the workload serially, untraced and traced, for the
// span budget.
func (r *serving) perLayer(res *result, m timedSpan, c counters, rec *recorder) error {
	zeroLayers(res)
	clientLayer(res, m)
	if len(m.ph.writes) > 0 {
		ww := windows(m.ph.writes, int64(m.d))
		p99, _ := tail(m.ph.writes, 0.99)
		res.layer("client.write_p50_us", ww.p50/1e3)
		res.layer("client.write_p99_us", p99/1e3)
	}
	if r.cfg.workload == wlMixedRW {
		res.layer("loadgen.late_frac", ratio(float64(m.ph.late), float64(len(r.pl.arrivals))))
		res.layer("loadgen.achieved_over_offered", ratio(m.w.throughput, mixedReadRate))
	}
	disk, err := r.st.diskBytes()
	if err != nil {
		return err
	}
	res.layer("client.disk_kb", float64(disk)/1e3)

	res.layer("server.requests", c["srv.requests"])
	res.layer("server.errors", c["srv.errors"])
	res.layer("coord.cache_hit_rate", ratio(c["co.hits"], c["co.hits"]+c["co.misses"]))
	res.layer("coord.route_memo_hit_rate", ratio(c["co.routehits"], c["co.queries"]))
	res.layer("coord.coalesced", c["co.coalesced"])
	res.layer("coord.invalidations", c["co.invalidations"])
	res.layer("coord.fanout_width_mean", ratio(c["co.subqueries"], c["co.fanouts"]))
	res.layer("coord.failovers", c["co.failovers"])
	res.layer("coord.epoch_global_bumps", c["co.global"])
	res.layer("f2db.plan_hit_rate", ratio(c["db.planhits"], c["db.planhits"]+c["db.planmisses"]))
	res.layer("f2db.memo_hit_rate", ratio(c["db.memohits"], c["db.memohits"]+c["db.memomisses"]))
	res.layer("f2db.memo_bypasses", c["db.bypasses"])
	res.layer("f2db.epoch_bumps", c["db.epochbumps"])
	res.layer("f2db.stripe_contention", c["db.contention"])
	res.layer("f2db.reestimations", c["db.reestimations"])
	res.layer("f2db.gen_retries", c["db.genretries"])
	res.layer("segment.compactions", c["db.compactions"])
	res.layer("segment.fsyncs_per_batch", ratio(c["fs.syncs"], c["db.batches"]))
	res.layer("segment.write_calls_per_batch", ratio(c["fs.writes"], c["db.batches"]))
	res.layer("segment.wal_bytes_per_row", ratio(c["db.walbytes"], c["db.inserts"]))
	res.layer("segment.segment_bytes_per_row",
		ratio(c["db.segbytes"], c["db.compactions"]*compactEvery*float64(len(r.st.g.BaseIDs))))
	advisorCounters(res, r.st.advisor)
	return r.spanBudget(res, rec)
}

func advisorCounters(res *result, met core.AdvisorMetrics) {
	res.layer("core.select_ms", met.SelectionTime.Seconds()*1e3)
	res.layer("core.eval_ms", met.EvalTime.Seconds()*1e3)
	res.layer("core.control_ms", met.ControlTime.Seconds()*1e3)
	res.layer("core.candidates", float64(met.Candidates))
	res.layer("core.models_built", float64(met.ModelsBuilt))
	res.layer("core.iterations", float64(met.Iterations))
}

// sampleBytes is the heap the phase's own sample buffers hold.
func sampleBytes(ph phase) float64 {
	n := 0
	for _, bufs := range [][][]sample{ph.ops, ph.writes} {
		for _, b := range bufs {
			n += cap(b)
		}
	}
	return float64(n) * float64(unsafe.Sizeof(sample{}))
}

// serialStream merges the workload's streams into the order one serial
// client replays them in: the closed-loop readers' sequences interleaved,
// a time point's statements in order, and on mixed-rw one time point after
// every readsPerPoint reads, which is the ratio the schedule offers.
type serialStream struct {
	r     *serving
	reads int // reads issued (mixed-rw: since the last time point)
	stmt  int // next statement of the time point in progress; 0 between time points
}

// readsPerPoint is how many reads the mixed-rw schedule offers per write.
const readsPerPoint = mixedReadRate * mixedWriteEvery / 1_000_000_000

// next returns the next statement and whether it is an INSERT.
func (s *serialStream) next() (sql string, exec bool) {
	r := s.r
	switch {
	case r.cfg.workload == wlIngest, r.cfg.workload == wlMixedRW && (s.stmt > 0 || s.reads == readsPerPoint):
		stmts := r.pl.writes[r.points%len(r.pl.writes)]
		sql = stmts[s.stmt]
		if s.stmt++; s.stmt == len(stmts) {
			s.stmt, s.reads = 0, 0
			r.points++
		}
		return sql, true
	case r.cfg.workload == wlMixedRW:
		a := r.pl.arrivals[r.pos[0]%len(r.pl.arrivals)]
		r.pos[0]++
		s.reads++
		return r.pl.stmts[a.stmt], false
	}
	c := s.reads % len(r.pl.reads)
	s.reads++
	seq := r.pl.reads[c]
	sql = r.pl.stmts[seq[r.pos[c]%len(seq)]]
	r.pos[c]++
	return sql, false
}

// serialPhase replays the stream through one client for d or limit
// operations, whichever ends first, recording a client span around every
// call when the recorder is on. It returns the operations done and how
// many of them it did per second.
func (r *serving) serialPhase(s *serialStream, d time.Duration, limit int, rec *recorder) (int, float64, error) {
	start := time.Now()
	n := 0
	// Past the limits, finish the time point in progress: the engines must
	// not be left mid-batch when the next phase starts a new one.
	for ; (n < limit && time.Since(start) < d) || s.stmt > 0; n++ {
		sql, exec := s.next()
		t := rec.begin()
		var err error
		if exec {
			err = r.probe.Exec(sql)
			rec.end("client.exec", t, n)
		} else {
			_, err = r.probe.Query(sql)
			rec.end("client.query", t, n)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("bench: serial replay: %w", err)
		}
		if exec && s.stmt == 0 && r.cfg.workload == wlMixedRW {
			t := time.Now()
			if err := r.st.settle(); err != nil {
				return 0, 0, err
			}
			start = start.Add(time.Since(t)) // as in mixedPhase, the clock stands still meanwhile
		}
	}
	return n, float64(n) / time.Since(start).Seconds(), nil
}

// spanBudget replays the workload serially twice — spans off, then on —
// and reports each layer's self time, how far the self times are from
// adding up to the client's median, and what recording cost.
func (r *serving) spanBudget(res *result, rec *recorder) error {
	// The untraced replay sets the operation count and the traced one
	// repeats it, so that both see the same mix of statements.
	const maxSerialOps = 20_000
	d := time.Duration(r.cfg.seconds * float64(time.Second) / 5)
	stream := &serialStream{r: r}
	n, plain, err := r.serialPhase(stream, d, maxSerialOps, nil)
	if err != nil {
		return err
	}
	rec.on.Store(true)
	_, traced, err := r.serialPhase(stream, 2*d, n, rec)
	if err != nil {
		return err
	}
	spans := rec.take()
	if err := writeSpans(filepath.Join(r.cfg.out, "trace-"+r.cfg.workload+".jsonl"), spans); err != nil {
		return err
	}
	kind := "query"
	if r.cfg.workload == wlIngest {
		kind = "exec"
	}
	b := analyse(spans, kind)
	fmt.Printf("# trace %s: %v\n", r.cfg.workload, b)

	hop, err := r.shardHop(rec)
	if err != nil {
		return err
	}
	// What the coordinator span spends outside its shard spans is its own
	// work plus, for the operations that went to a shard, the hop to it.
	coordSelf := b.coordSelf - b.shardFrac*hop
	res.layer("net.front_self_us", b.frontSelf/1e3)
	res.layer("net.shard_hop_us", hop/1e3)
	res.layer("coord.self_us", coordSelf/1e3)
	res.layer("f2db.query_self_us", b.querySelf/1e3)
	res.layer("f2db.exec_self_us", b.execSelf/1e3)
	sum := b.frontSelf + coordSelf + b.shardFrac*hop + b.shard
	res.layer("trace.budget_gap_frac", ratio(math.Abs(sum-b.client), b.client))
	res.layer("trace.overhead_frac", 1-ratio(traced, plain))
	return nil
}

// shardHop measures what one hop to a shard costs on top of the engine's
// own work: cold single-node statements sent straight to shard 0, client
// span minus the shard-backend span inside it.
func (r *serving) shardHop(rec *recorder) (float64, error) {
	cl, err := dial(r.st.shards[0].addr)
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	rec.on.Store(true)
	for i, sql := range r.pl.probes[probeDrills:] {
		t := rec.begin()
		_, err := cl.Query(sql)
		rec.end("direct.query", t, i)
		if err != nil {
			rec.take()
			return 0, fmt.Errorf("bench: shard hop probe: %w", err)
		}
	}
	spans := rec.take()
	var hops []float64
	for _, s := range spans {
		if s.Name == "shard0.query" && s.Parent >= 0 && spans[s.Parent].Name == "direct.query" {
			p := spans[s.Parent]
			hops = append(hops, float64((p.End-p.Start)-(s.End-s.Start)))
		}
	}
	return median(hops), nil
}

// bench times f in reps batches of k calls and returns the median batch's
// nanoseconds per call. Batching keeps the clock reads out of calls that
// take tens of nanoseconds.
func bench(reps, k int, f func(i int)) float64 {
	times := make([]float64, reps)
	for r := range times {
		t := time.Now()
		for i := 0; i < k; i++ {
			f(r*k + i)
		}
		times[r] = float64(time.Since(t)) / float64(k)
	}
	return median(times)
}

// boundaryProbes calls each layer directly, outside any load, so that a
// change to one boundary shows at that boundary: the same statements at
// NormalizeSQL, the router, the engine with and without its caches, the
// coordinator in-process, the result codec, the socket, the insert path
// with and without the WAL under it, re-estimation, recovery, the WAL
// alone under both fsync policies, graph construction and model fitting.
func (r *serving) boundaryProbes(res *result, twin *f2db.DB) error {
	st := r.st
	singles := r.pl.probes[probeDrills:]
	at := func(i int) string { return singles[i%len(singles)] }
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	planner := f2db.NewPlanner(st.g, 0)
	res.layer("f2db.normalize_ns", bench(9, 2000, func(i int) { f2db.NormalizeSQL(at(i)) }))
	res.layer("f2db.route_ns", bench(9, 500, func(i int) { planner.RouteQuery(at(i)) }))
	res.layer("f2db.query_hit_ns", bench(9, 2000, func(int) { twin.Query(singles[0]) }))
	res.layer("coord.query_hit_ns", bench(9, 2000, func(int) { st.co.Query(singles[0]) }))

	// A fresh engine without plan cache or memo: every query parses, plans
	// and derives. Its invalidation strategy is TimeBased{1}, so one batch
	// later every model awaits re-estimation.
	probe, err := st.newEngine(f2db.Options{Strategy: f2db.TimeBased{Every: 1}, PlanCacheSize: -1, ForecastCacheSize: -1})
	if err != nil {
		return err
	}
	res.layer("f2db.query_miss_ns", bench(9, 100, func(i int) { probe.Query(at(i)) }))

	// The coordinator's miss path: statements it has not seen since the
	// last write, in-process, so the front hop is not in the figure.
	cold := newPlanner(st.g, r.cfg.seed^0x636f6c64)
	res.layer("coord.query_miss_us", bench(9, 50, func(int) { st.co.Query(cold.single()) })/1e3)

	out, err := twin.Query(singles[0])
	if err != nil {
		return err
	}
	payload := wire.AppendResult(nil, out)
	buf := make([]byte, 0, len(payload))
	res.layer("wire.result_bytes", float64(len(payload)))
	res.layer("wire.encode_result_ns", bench(9, 2000, func(int) { buf = wire.AppendResult(buf[:0], out) }))
	res.layer("wire.decode_result_ns", bench(9, 2000, func(int) { wire.DecodeResult(payload) }))
	res.layer("net.ping_rtt_us", bench(9, 200, func(int) { r.probe.Ping() })/1e3)

	// One full time point through InsertBatch, without and with the WAL.
	batch := func(db *f2db.DB) map[int]float64 {
		g := db.Graph()
		b := make(map[int]float64, g.NumBase())
		for _, id := range g.BaseIDs() {
			vals := g.NodeValues(id)
			b[id] = vals[len(vals)-1]
		}
		return b
	}
	pb := batch(probe)
	res.layer("f2db.insert_batch_us", bench(5, 1, func(int) { keep(probe.InsertBatch(pb)) })/1e3)
	res.layer("f2db.reestimate_ms", bench(1, 1, func(int) { probe.ReestimateInvalid() })/1e6)

	// Recovery: stop the cluster, reopen shard 0 from its directory.
	snap, err := os.Stat(filepath.Join(st.shards[0].dir, "snapshot.db"))
	if err != nil {
		return err
	}
	res.layer("f2db.snapshot_kb", float64(snap.Size())/1e3)
	if err := st.stop(); err != nil {
		return err
	}
	t := time.Now()
	sh, err := st.openShard(st.shards[0].dir, 0)
	if err != nil {
		return err
	}
	res.layer("f2db.recovery_s", time.Since(t).Seconds())
	st.shards[0] = sh
	db := sh.dur.DB()
	db0 := batch(db)
	res.layer("f2db.durable_batch_us", bench(5, 1, func(int) { keep(db.InsertBatch(db0)) })/1e3)
	res.layer("segment.compact_ms", bench(1, 1, func(int) { keep(sh.dur.Compact()) })/1e6)

	// The WAL alone: one time point's worth of entries per record.
	entries := make([]segment.Entry, 0, len(db0))
	for _, id := range db.Graph().BaseIDs() {
		entries = append(entries, segment.Entry{ID: int64(id), Value: db0[id]})
	}
	for _, p := range []struct {
		name   string
		policy segment.SyncPolicy
	}{{"segment.wal_append_sync_us", segment.SyncAlways}, {"segment.wal_append_nosync_us", segment.SyncNever}} {
		dir := filepath.Join(r.cfg.dir, "walprobe")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		wal, _, err := segment.OpenWAL(segment.OSFS{}, dir, 1, p.policy, nil)
		if err != nil {
			return err
		}
		res.layer(p.name, bench(9, 1, func(i int) { keep(wal.Append(uint64(i+1), entries)) })/1e3)
		keep(wal.Close())
		keep(os.RemoveAll(dir))
	}
	graphAndFit(res, r.cfg.servingNodes)
	return firstErr
}

// graphAndFit probes hyper-graph construction and one Holt-Winters fit,
// cold and warm-started from its own parameters, on the cube's top series.
func graphAndFit(res *result, nodes int) {
	ds := datasets.GenCube(dataSeed, datasets.CubeGenForNodes(nodes, 2))
	var g *cube.Graph
	res.layer("cube.graph_build_ms", bench(3, 1, func(int) { g, _ = ds.Graph() })/1e6)
	series := g.Node(g.TopID).Series
	m := forecast.NewHoltWinters(g.Period, forecast.Additive)
	res.layer("forecast.fit_cold_us", bench(9, 1, func(int) {
		m = forecast.NewHoltWinters(g.Period, forecast.Additive)
		m.Fit(series)
	})/1e3)
	res.layer("forecast.fit_warm_us", bench(9, 1, func(int) {
		m.WarmStart(m.Params())
		m.Fit(series)
	})/1e3)
}

// advisorLayers is the traced half of the advisor workload: a replay with
// a span per run and per iteration, the advisor's own phase counters, and
// the graph and fit probes. The serving layers do no work here and read 0.
func advisorLayers(cfg config, res *result, g *cube.Graph, m timedSpan, last advisorRun) error {
	zeroLayers(res)
	clientLayer(res, m)
	advisorCounters(res, last.met)

	rec := newRecorder()
	rec.on.Store(true)
	ph, _, err := advisorPhase(g, cfg.seed, 0, cfg.duration()/4, rec)
	if err != nil {
		return err
	}
	spans := rec.take()
	if err := writeSpans(filepath.Join(cfg.out, "trace-"+cfg.workload+".jsonl"), spans); err != nil {
		return err
	}
	// The run's self time is what NewAdvisor does before the first
	// iteration; the gap says how much of a run the iterations explain.
	var runs, steps []float64
	perRun := map[int]float64{}
	for _, s := range spans {
		switch s.Name {
		case "client.run":
			runs = append(runs, float64(s.End-s.Start))
		case "core.step":
			perRun[s.Op] += float64(s.End - s.Start)
		}
	}
	for _, v := range perRun {
		steps = append(steps, v)
	}
	res.layer("trace.budget_gap_frac", ratio(math.Abs(median(runs)-median(steps)), median(runs)))
	traced := windows(ph.ops, int64(cfg.duration()/4))
	res.layer("trace.overhead_frac", 1-ratio(traced.throughput, m.w.throughput))
	graphAndFit(res, cfg.advisorNodes)
	return nil
}
