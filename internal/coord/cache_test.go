package coord

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/f2db"
	"cubefc/internal/timeseries"
)

// TestNormalizeSQLSharedKeying proves both tiers key their caches with the
// one exported f2db.NormalizeSQL: statements differing only in whitespace
// collapse to a single plan-cache entry in the engine AND a single
// result-cache entry in the coordinator, so the tiers can never disagree
// about which statements are "the same".
func TestNormalizeSQLSharedKeying(t *testing.T) {
	const canon = "SELECT time, SUM(sales) FROM facts WHERE region = 'R1'"
	const messy = "  SELECT\ttime,  SUM(sales)\nFROM facts   WHERE region = 'R1' "
	if f2db.NormalizeSQL(canon) != f2db.NormalizeSQL(messy) {
		t.Fatalf("NormalizeSQL does not collapse whitespace variants:\n%q\n%q",
			f2db.NormalizeSQL(canon), f2db.NormalizeSQL(messy))
	}

	g, data := buildCube(t)

	// Engine tier: the second variant must hit the plan cache.
	db := loadEngine(t, data)
	if _, err := db.Query(canon); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(messy); err != nil {
		t.Fatal(err)
	}
	em := db.Metrics()
	if em.PlanCacheMisses != 1 || em.PlanCacheHits != 1 {
		t.Fatalf("engine plan cache: %d misses, %d hits; want 1 and 1",
			em.PlanCacheMisses, em.PlanCacheHits)
	}

	// Coordinator tier: the second variant must hit the result cache.
	s0 := startShardOn(t, data, "127.0.0.1:0")
	defer s0.stop(t)
	opts := testCoordOpts(t)
	opts.CacheSize = 16
	co, err := New(f2db.NewPlanner(g, 0), []string{s0.addr}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if _, err := co.Query(canon); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Query(messy); err != nil {
		t.Fatal(err)
	}
	m := co.Metrics()
	if m.CacheMisses.Load() != 1 || m.CacheHits.Load() != 1 {
		t.Fatalf("coordinator result cache: %d misses, %d hits; want 1 and 1",
			m.CacheMisses.Load(), m.CacheHits.Load())
	}
	if m.RouteMemoHits.Load() != 1 {
		t.Fatalf("route memo hits = %d, want 1", m.RouteMemoHits.Load())
	}
	if co.cache.len() != 1 {
		t.Fatalf("read table holds %d entries, want 1", co.cache.len())
	}

	// A coordinator hit is one lock, one table lookup and one copy into the
	// caller's buffer: it allocates nothing (the engine's plan-hit gate is
	// in f2db's TestCachePlanReuse).
	buf := make([]byte, 0, 4<<10)
	if n := testing.AllocsPerRun(200, func() { buf, _ = co.AppendQuery(buf[:0], canon) }); n != 0 {
		t.Fatalf("coordinator cached hit allocates %v times, want 0", n)
	}
}

// TestNormalizeSQLLiterals: two members that differ only in whitespace
// inside the literal are two statements to the coordinator's read table —
// each is planned, routed and answered for its own node, cached or not.
func TestNormalizeSQLLiterals(t *testing.T) {
	cities := []string{"New York", "New  York"}
	dims := []cube.Dimension{cube.NewDimension("product", "product"), cube.NewDimension("city", "city")}
	var base []cube.BaseSeries
	for i, c := range cities {
		vals := make([]float64, 36)
		for j := range vals {
			vals[j] = float64(100*(i+1)) * (1 + 0.25*math.Sin(2*math.Pi*float64(j%4)/4))
		}
		base = append(base, cube.BaseSeries{Members: []string{"P1", c}, Series: timeseries.New(vals, 4)})
	}
	g, err := cube.NewGraph(dims, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := core.Run(g, core.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	src, err := f2db.Open(g, cfg, f2db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f2db.SaveDatabase(&buf, src); err != nil {
		t.Fatal(err)
	}
	s0 := startShardOn(t, buf.Bytes(), "127.0.0.1:0")
	defer s0.stop(t)
	opts := testCoordOpts(t)
	opts.CacheSize = 16
	co, err := New(f2db.NewPlanner(g, 0), []string{s0.addr}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	for round := 0; round < 2; round++ { // the second round is served from the table
		for _, c := range cities {
			res, err := co.Query("SELECT time, SUM(m) FROM facts WHERE city = '" + c + "' GROUP BY time AS OF now() + '2 steps'")
			if err != nil {
				t.Fatal(err)
			}
			if want := "*|city=" + c; res.NodeKey != want {
				t.Fatalf("round %d: city %q answered for node %q", round, c, res.NodeKey)
			}
		}
	}
	if n := co.cache.len(); n != 2 {
		t.Fatalf("read table holds %d entries, want 2", n)
	}
}

// Statements standing in for table keys in the readCache unit tests; each
// is already in NormalizeSQL form, so the text is its own key.
const (
	qA = "SELECT time, SUM(sales) FROM facts WHERE region = 'R1'"
	qE = "SELECT time, SUM(sales) FROM facts WHERE region = 'R2'"
	qC = "SELECT time, SUM(sales) FROM facts WHERE product = 'P1'"
	qK = "SELECT time, SUM(sales) FROM facts"
)

// ask drives the table the way Coordinator.AppendQuery does: lookup, then
// fill on a miss.
func ask(rc *readCache, p *f2db.Planner, q string, fetch func() ([]byte, error)) ([]byte, error) {
	ent, res, err := rc.lookup(q, q, p)
	if err != nil || res != nil {
		return res, err
	}
	return rc.fill(q, ent, fetch)
}

// same reports whether two payloads are one slice — the table hands out
// the bytes it holds, never a copy.
func same(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// TestReadCacheResultLRU pins the result-cache state machine in isolation:
// miss/fill/hit, epoch invalidation, error pass-through, and LRU eviction
// at capacity.
func TestReadCacheResultLRU(t *testing.T) {
	g, _ := buildCube(t)
	p := f2db.NewPlanner(g, 0)
	var epoch atomic.Uint64
	m := newMetrics(nil)
	rc := newReadCache(2, &epoch, m)
	fetch := func(r []byte) func() ([]byte, error) {
		return func() ([]byte, error) { return r, nil }
	}
	forbidden := func() ([]byte, error) {
		t.Fatal("fetch ran on what must be a cache hit")
		return nil, nil
	}
	ra := []byte("a")

	if got, _ := ask(rc, p, qA, fetch(ra)); !same(got, ra) {
		t.Fatal("miss did not return the fetched result")
	}
	if got, _ := ask(rc, p, qA, forbidden); !same(got, ra) {
		t.Fatal("hit did not return the cached result")
	}
	if m.CacheMisses.Load() != 1 || m.CacheHits.Load() != 1 {
		t.Fatalf("misses=%d hits=%d, want 1 and 1", m.CacheMisses.Load(), m.CacheHits.Load())
	}

	// A write bumps the epoch: the entry is stale, dropped lazily, and the
	// key refetches.
	epoch.Add(1)
	ra2 := []byte("a2")
	if got, _ := ask(rc, p, qA, fetch(ra2)); !same(got, ra2) {
		t.Fatal("stale entry served after epoch bump")
	}
	if m.CacheInvalidations.Load() != 1 {
		t.Fatalf("invalidations = %d, want 1", m.CacheInvalidations.Load())
	}
	if got, _ := ask(rc, p, qA, forbidden); !same(got, ra2) {
		t.Fatal("refilled entry not served at the new epoch")
	}

	// Errors pass through uncached.
	boom := errors.New("boom")
	if _, err := ask(rc, p, qE, func() ([]byte, error) { return nil, boom }); err != boom {
		t.Fatalf("fetch error not returned: %v", err)
	}
	if got, _ := ask(rc, p, qE, fetch(ra)); !same(got, ra) {
		t.Fatal("error was cached; refetch did not run")
	}

	// Capacity 2 with {a, e} resident: filling a third key evicts the LRU
	// tail (a — e was used more recently).
	if _, err := ask(rc, p, qC, fetch([]byte("c"))); err != nil {
		t.Fatal(err)
	}
	if m.CacheEvictions.Load() != 1 {
		t.Fatalf("evictions = %d, want 1", m.CacheEvictions.Load())
	}
	if got, _ := ask(rc, p, qA, fetch(ra)); !same(got, ra) {
		t.Fatal("evicted key did not refetch")
	}
	if rc.len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", rc.len())
	}
}

// TestReadCacheRouteMemo pins the plan half of a table entry: one plan per
// statement key, pointer-identical on repeat, planning errors never stored
// — and a write that overtakes the entry's result clears the result only,
// so the re-query counts one invalidation and one memo hit and re-plans
// nothing.
func TestReadCacheRouteMemo(t *testing.T) {
	g, _ := buildCube(t)
	p := f2db.NewPlanner(g, 0)
	var epoch atomic.Uint64
	m := newMetrics(nil)
	rc := newReadCache(4, &epoch, m)

	const sql = "SELECT time, SUM(sales) FROM facts GROUP BY time, region"
	key := f2db.NormalizeSQL(sql)
	e1, _, err := rc.lookup(key, sql, p)
	if err != nil {
		t.Fatal(err)
	}
	e2, _, err := rc.lookup(key, sql, p)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 || e1.plan != e2.plan {
		t.Fatal("memoized plan is not pointer-identical")
	}
	if m.RouteMemoHits.Load() != 1 {
		t.Fatalf("route memo hits = %d, want 1", m.RouteMemoHits.Load())
	}

	const bad = "SELECT time, sales FROM facts WHERE planet = 'X'"
	for i := 0; i < 2; i++ {
		if _, _, err := rc.lookup(f2db.NormalizeSQL(bad), bad, p); err == nil {
			t.Fatal("invalid statement routed")
		}
	}
	if m.RouteMemoHits.Load() != 1 || rc.len() != 1 {
		t.Fatal("planning error was memoized")
	}

	// Fill the entry, then let a write land (an Exec's epoch bump).
	res := []byte("r")
	if got, _ := rc.fill(key, e1, func() ([]byte, error) { return res, nil }); !same(got, res) {
		t.Fatal("fill did not return the fetched result")
	}
	if _, got, _ := rc.lookup(key, sql, p); !same(got, res) {
		t.Fatal("filled entry not served")
	}
	epoch.Add(1)
	plan, hits := e1.plan, m.RouteMemoHits.Load()
	e3, got, err := rc.lookup(key, sql, p)
	if err != nil || got != nil {
		t.Fatalf("stale result served after the write: %v, %v", got, err)
	}
	if e3 != e1 || e3.plan != plan {
		t.Fatal("the write made the statement re-plan")
	}
	if m.CacheInvalidations.Load() != 1 || m.RouteMemoHits.Load() != hits+1 {
		t.Fatalf("invalidations=%d memo hits=%d, want 1 and %d",
			m.CacheInvalidations.Load(), m.RouteMemoHits.Load(), hits+1)
	}
}

// TestReadCacheCoalesce: concurrent identical statements at one epoch
// share a single fetch — the waiters never go to a shard themselves.
func TestReadCacheCoalesce(t *testing.T) {
	g, _ := buildCube(t)
	p := f2db.NewPlanner(g, 0)
	var epoch atomic.Uint64
	m := newMetrics(nil)
	rc := newReadCache(4, &epoch, m)
	res := []byte("x")
	release := make(chan struct{})
	var fetches atomic.Int64

	leaderGot := make(chan []byte, 1)
	go func() {
		r, _ := ask(rc, p, qK, func() ([]byte, error) {
			fetches.Add(1)
			<-release
			return res, nil
		})
		leaderGot <- r
	}()
	waitFor(t, "flight registered", func() bool {
		rc.mu.Lock()
		defer rc.mu.Unlock()
		ent, ok := rc.tab.Get(qK)
		return ok && ent.flying
	})

	const waiters = 8
	var wg sync.WaitGroup
	got := make([][]byte, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A nil-safe fetch that must never run: the waiters join the
			// leader's flight instead.
			got[i], _ = ask(rc, p, qK, func() ([]byte, error) {
				t.Error("waiter fetched instead of coalescing")
				return nil, nil
			})
		}(i)
	}
	waitFor(t, "waiters coalesced", func() bool { return m.CacheCoalesced.Load() == waiters })
	close(release)
	wg.Wait()
	if r := <-leaderGot; !same(r, res) {
		t.Fatal("leader returned wrong result")
	}
	for i := range got {
		if !same(got[i], res) {
			t.Fatalf("waiter %d got a different result", i)
		}
	}
	if fetches.Load() != 1 || m.CacheMisses.Load() != 1 {
		t.Fatalf("fetches=%d misses=%d, want 1 and 1", fetches.Load(), m.CacheMisses.Load())
	}
}

// TestReadCacheStaleFlightRetry: a write that lands while a fetch is in
// flight (1) stops the flight from filling the cache and (2) forces a
// later arrival at the new epoch to wait the old flight out and refetch —
// it must never be served the possibly-pre-write answer.
func TestReadCacheStaleFlightRetry(t *testing.T) {
	g, _ := buildCube(t)
	p := f2db.NewPlanner(g, 0)
	var epoch atomic.Uint64
	m := newMetrics(nil)
	rc := newReadCache(4, &epoch, m)
	old := []byte("old")
	fresh := []byte("new")
	release := make(chan struct{})

	go func() {
		_, _ = ask(rc, p, qK, func() ([]byte, error) {
			<-release
			return old, nil
		})
	}()
	waitFor(t, "flight registered", func() bool {
		rc.mu.Lock()
		defer rc.mu.Unlock()
		ent, ok := rc.tab.Get(qK)
		return ok && ent.flying
	})
	epoch.Add(1) // a write lands mid-flight

	done := make(chan []byte, 1)
	go func() {
		r, _ := ask(rc, p, qK, func() ([]byte, error) { return fresh, nil })
		done <- r
	}()
	time.Sleep(20 * time.Millisecond) // let the new-epoch caller park on the stale flight
	close(release)
	if r := <-done; !same(r, fresh) {
		t.Fatal("new-epoch caller was served the stale flight's answer")
	}
	if m.CacheCoalesced.Load() != 0 {
		t.Fatal("new-epoch caller coalesced onto a stale flight")
	}
	// The leader must not have filled (epoch moved); the retry did, at the
	// new epoch.
	got, _ := ask(rc, p, qK, func() ([]byte, error) {
		t.Fatal("refetch ran; the retry's fill is missing")
		return nil, nil
	})
	if !same(got, fresh) {
		t.Fatal("cache holds the stale answer")
	}
}

// TestCoordCacheInvalidationWindow is the deterministic end-to-end
// invalidation proof: fill → hit → Exec → the next identical query MISSES,
// fans out, and returns the post-write answer (bit-exact vs the twin),
// then serves hits again at the new epoch.
func TestCoordCacheInvalidationWindow(t *testing.T) {
	g, data := buildCube(t)
	twin := loadEngine(t, data)
	s0 := startShardOn(t, data, "127.0.0.1:0")
	defer s0.stop(t)
	opts := testCoordOpts(t)
	opts.CacheSize = 64
	co, err := New(f2db.NewPlanner(g, 0), []string{s0.addr}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	m := co.Metrics()

	const q = "SELECT time, SUM(sales) FROM facts GROUP BY time, region AS OF now() + '2 steps'"
	r1, err := co.Query(q) // fill
	if err != nil {
		t.Fatal(err)
	}
	w1, err := twin.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "pre-write fill", r1, w1)
	r2, err := co.Query(q) // hit
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "pre-write hit", r2, w1)
	if m.CacheMisses.Load() != 1 || m.CacheHits.Load() != 1 {
		t.Fatalf("misses=%d hits=%d, want 1 and 1", m.CacheMisses.Load(), m.CacheHits.Load())
	}

	ins := batchInsertSQL(100)
	if err := co.Exec(ins); err != nil {
		t.Fatal(err)
	}
	if err := twin.Exec(ins); err != nil {
		t.Fatal(err)
	}
	if e := co.epoch.Load(); e != 1 {
		t.Fatalf("write epoch = %d after one Exec, want 1", e)
	}

	r3, err := co.Query(q) // must miss and refill at the new epoch
	if err != nil {
		t.Fatal(err)
	}
	if m.CacheMisses.Load() != 2 {
		t.Fatalf("post-write query did not miss: misses=%d", m.CacheMisses.Load())
	}
	if m.CacheInvalidations.Load() != 1 {
		t.Fatalf("invalidations = %d, want 1", m.CacheInvalidations.Load())
	}
	w3, err := twin.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "post-write refill", r3, w3)

	// The answer genuinely changed — the invalidation mattered.
	changed := false
	for i := range r1.Groups {
		a, b := r1.Groups[i].Rows, r3.Groups[i].Rows
		if len(a) != len(b) {
			changed = true
			continue
		}
		for j := range a {
			if math.Float64bits(a[j].Value) != math.Float64bits(b[j].Value) {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("pre- and post-write answers identical; the test proves nothing")
	}

	r4, err := co.Query(q) // hit at the new epoch
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "post-write hit", r4, w3)
	if m.CacheHits.Load() != 2 {
		t.Fatalf("refilled entry not served: hits=%d", m.CacheHits.Load())
	}
	// Every query after the first found its plan in the table — the Exec
	// cost the statement its result, not its plan.
	if m.RouteMemoHits.Load() != 3 {
		t.Fatalf("route memo hits = %d, want 3", m.RouteMemoHits.Load())
	}
}

// TestCoordCacheQuickInterleavings drives random Exec/Query interleavings
// (testing/quick draws the seeds from a fixed source, so every run replays
// the same four — drawn from the clock, about one run in 1 200 met no hit
// or no invalidation and failed the final assertion) through a cached
// coordinator and the single-process twin in lockstep; every query answer
// must stay bit-exact.
func TestCoordCacheQuickInterleavings(t *testing.T) {
	g, data := buildCube(t)
	twin := loadEngine(t, data)
	s0 := startShardOn(t, data, "127.0.0.1:0")
	s1 := startShardOn(t, data, "127.0.0.1:0")
	defer s0.stop(t)
	defer s1.stop(t)
	opts := testCoordOpts(t)
	opts.CacheSize = 8 // small: exercise eviction alongside invalidation
	co, err := New(f2db.NewPlanner(g, 0), []string{s0.addr, s1.addr}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	queries := []string{
		"SELECT time, sales FROM facts WHERE product = 'P1' AND city = 'C2'",
		"SELECT time, SUM(sales) FROM facts WHERE region = 'R2' AS OF now() + '2 steps'",
		"SELECT time, SUM(sales) FROM facts",
		"SELECT time, SUM(sales) FROM facts GROUP BY time, city WITH INTERVAL 95",
		"SELECT time, SUM(sales) FROM facts WHERE product = 'P2' GROUP BY time, region AS OF now() + '3 steps'",
	}
	val := 0
	property := func(seed int64) bool {
		t.Logf("interleaving seed %d", seed)
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 12; op++ {
			if rng.Intn(3) == 0 {
				val++
				ins := batchInsertSQL(val * 10)
				if err := co.Exec(ins); err != nil {
					t.Fatalf("seed %d op %d: coordinator exec: %v", seed, op, err)
				}
				if err := twin.Exec(ins); err != nil {
					t.Fatalf("seed %d op %d: twin exec: %v", seed, op, err)
				}
				continue
			}
			q := queries[rng.Intn(len(queries))]
			got, err := co.Query(q)
			if err != nil {
				t.Fatalf("seed %d op %d: coordinator: %v", seed, op, err)
			}
			want, err := twin.Query(q)
			if err != nil {
				t.Fatalf("seed %d op %d: twin: %v", seed, op, err)
			}
			sameResult(t, q, got, want)
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 4, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	m := co.Metrics()
	if m.CacheHits.Load() == 0 || m.CacheInvalidations.Load() == 0 {
		t.Fatalf("interleavings exercised hits=%d invalidations=%d; want both > 0",
			m.CacheHits.Load(), m.CacheInvalidations.Load())
	}
}

// TestCoordCacheTwinRace is the tentpole -race proof: a cache-on
// coordinator under concurrent identical queries racing live writes stays
// bit-exact — once quiesced — with a cache-off coordinator over its own
// shard and with the single-process twin. Queries that race an in-flight
// write may legitimately see either side, so the racing burst asserts only
// that every answer arrives without error; the bit-exact comparison runs
// at each write boundary.
func TestCoordCacheTwinRace(t *testing.T) {
	g, data := buildCube(t)
	twin := loadEngine(t, data)
	a0 := startShardOn(t, data, "127.0.0.1:0")
	a1 := startShardOn(t, data, "127.0.0.1:0")
	b0 := startShardOn(t, data, "127.0.0.1:0")
	defer a0.stop(t)
	defer a1.stop(t)
	defer b0.stop(t)

	cachedOpts := testCoordOpts(t)
	cachedOpts.CacheSize = 32
	cached, err := New(f2db.NewPlanner(g, 0), []string{a0.addr, a1.addr}, cachedOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	uncached, err := New(f2db.NewPlanner(g, 0), []string{b0.addr}, testCoordOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer uncached.Close()

	queries := []string{
		"SELECT time, sales FROM facts WHERE product = 'P1' AND city = 'C1'",
		"SELECT time, SUM(sales) FROM facts WHERE region = 'R1' AS OF now() + '2 steps'",
		"SELECT time, SUM(sales) FROM facts",
		"SELECT time, SUM(sales) FROM facts GROUP BY time, region AS OF now() + '1 steps'",
	}
	const phases, readers, readsPer = 4, 6, 5
	for phase := 0; phase < phases; phase++ {
		// Readers hammer the hot set while the write lands mid-burst.
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := 0; i < readsPer; i++ {
					q := queries[(r+i)%len(queries)]
					if _, err := cached.Query(q); err != nil {
						t.Errorf("racing query %q: %v", q, err)
					}
				}
			}(r)
		}
		ins := batchInsertSQL(phase * 100)
		if err := cached.Exec(ins); err != nil {
			t.Fatalf("phase %d: cached exec: %v", phase, err)
		}
		wg.Wait()
		if err := uncached.Exec(ins); err != nil {
			t.Fatalf("phase %d: uncached exec: %v", phase, err)
		}
		if err := twin.Exec(ins); err != nil {
			t.Fatalf("phase %d: twin exec: %v", phase, err)
		}

		// Quiesced: all three must agree bit-for-bit.
		for _, q := range queries {
			gc, err := cached.Query(q)
			if err != nil {
				t.Fatalf("phase %d cached %q: %v", phase, q, err)
			}
			gu, err := uncached.Query(q)
			if err != nil {
				t.Fatalf("phase %d uncached %q: %v", phase, q, err)
			}
			w, err := twin.Query(q)
			if err != nil {
				t.Fatalf("phase %d twin %q: %v", phase, q, err)
			}
			sameResult(t, "cached vs twin: "+q, gc, w)
			sameResult(t, "uncached vs twin: "+q, gu, w)
		}
	}
	m := cached.Metrics()
	if m.CacheHits.Load() == 0 || m.CacheMisses.Load() == 0 || m.CacheInvalidations.Load() == 0 {
		t.Fatalf("race run left the cache unexercised: hits=%d misses=%d invalidations=%d",
			m.CacheHits.Load(), m.CacheMisses.Load(), m.CacheInvalidations.Load())
	}
}
