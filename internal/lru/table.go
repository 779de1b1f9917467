package lru

import (
	"sync"
	"sync/atomic"
)

// Table is the statement-keyed read table (DESIGN.md §6): one per tier,
// the coordinator's in front of its shards and the engine's in front of its
// derivation, keyed by the normalized statement text (f2db.NormalizeSQL, so
// the tiers cannot disagree on which statements are the same). An entry
// holds everything known about its statement:
//
//   - the plan, computed on first sight from the immutable graph and never
//     invalidated — even a statement whose answer a write just made stale
//     skips re-planning;
//   - the answer, served only while the epoch it was produced under is
//     unchanged. The owner bumps the epoch on every write that can change
//     an answer. A stale answer is cleared lazily on the next lookup of its
//     key, never swept: a write costs one counter increment, not a table
//     scan.
//
// Stamp/fill protocol. A lookup samples the epoch once the entry is in hand
// and serves the stored answer only if its stamp equals that sample: no
// write landed between the fetch that produced the answer and the sample.
// A write whose bump lands after the sample is concurrent with this query,
// and a query racing a write may see either side. A fetch fills the entry
// only if the epoch is still the one sampled before it; when it is not, the
// fetch may have read before or after the write, which is correct for its
// own caller but must not speak for the new epoch.
//
// Concurrent identical misses each fetch: in traced runs of every benchmark
// workload no miss found a same-epoch fetch for its statement in flight, so
// a singleflight that joined them saved nothing. Answers are shared by
// every hit and never written after the fill.
type Table[P, R any] struct {
	epoch *atomic.Uint64
	met   Meters

	mu  sync.Mutex
	tab *Cache[string, *Entry[P, R]]
}

// Entry is one statement's row. Plan is fixed at creation; the other
// fields are guarded by the table's lock.
type Entry[P, R any] struct {
	Plan P
	// res is the answer fetched under epoch st, held while ok; cleared
	// once a lookup finds st out of date.
	st  uint64
	res R
	ok  bool
}

// Meters are the counters a Table adds to: lookups that found the plan,
// lookups and fills served an answer, fetches, evicted entries and answers
// a write overtook. Every one must be set.
type Meters struct {
	PlanHits, Hits, Misses, Evictions, Invalidations *atomic.Int64
}

// NewTable returns a table of at most capacity statements whose answers are
// stamped with epoch.
func NewTable[P, R any](capacity int, epoch *atomic.Uint64, met Meters) *Table[P, R] {
	return &Table[P, R]{epoch: epoch, met: met, tab: New[string, *Entry[P, R]](capacity)}
}

// freshLocked samples the epoch and returns it with the entry's answer if
// that is still current, clearing an answer a write has overtaken. Callers
// hold t.mu.
func (t *Table[P, R]) freshLocked(ent *Entry[P, R]) (uint64, R, bool) {
	st := t.epoch.Load()
	if ent.ok && ent.st != st {
		var zero R
		ent.res, ent.ok = zero, false
		t.met.Invalidations.Add(1)
	}
	return st, ent.res, ent.ok
}

// Lookup is the hot path: one lock, one table lookup. It returns the
// statement's entry — planned into place by plan and inserted on first
// sight — and its answer when that is current (a hit; otherwise the caller
// goes to Fill). Planning errors are returned unstored: they are not on the
// hot path, and the rejection text must stay the planner's.
func (t *Table[P, R]) Lookup(key string, plan func(*P) error) (ent *Entry[P, R], res R, ok bool, err error) {
	t.mu.Lock()
	if ent, found := t.tab.Get(key); found {
		_, res, ok = t.freshLocked(ent)
		t.mu.Unlock()
		t.met.PlanHits.Add(1)
		if ok {
			t.met.Hits.Add(1)
		}
		return ent, res, ok, nil
	}
	t.mu.Unlock()
	ent = new(Entry[P, R])
	if err := plan(&ent.Plan); err != nil {
		return nil, res, false, err
	}
	t.mu.Lock()
	if cur, found := t.tab.Get(key); found {
		ent = cur // raced with another planner; every caller of the key shares one entry
	} else if t.tab.Put(key, ent) {
		t.met.Evictions.Add(1)
	}
	t.mu.Unlock()
	return ent, res, false, nil
}

// Fill is the miss path for an entry Lookup returned without an answer: it
// serves an answer another fill stored meanwhile, and otherwise runs fetch
// and — if no write intervened — stores what it returns in the entry.
// fetch returns an answer nobody else holds; from here on it is shared and
// read-only.
func (t *Table[P, R]) Fill(key string, ent *Entry[P, R], fetch func() (R, error)) (R, error) {
	t.mu.Lock()
	st, res, ok := t.freshLocked(ent)
	t.mu.Unlock()
	if ok {
		t.met.Hits.Add(1)
		return res, nil
	}
	t.met.Misses.Add(1)

	res, err := fetch()
	t.mu.Lock()
	if err == nil && t.epoch.Load() == st {
		ent.st, ent.res, ent.ok = st, res, true
		// Re-seat the entry: it may have been evicted during the fetch,
		// and a fill counts as a use.
		if t.tab.Put(key, ent) {
			t.met.Evictions.Add(1)
		}
	}
	t.mu.Unlock()
	return res, err
}

// Len reports the entry count. Entries whose answer a write overtook, or
// whose fetch failed, hold only a plan, so this is an upper bound on
// servable answers.
func (t *Table[P, R]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tab.Len()
}
