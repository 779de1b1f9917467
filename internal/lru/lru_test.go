package lru

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// TestEvictionOrder pins the LRU contract on a hand-checked sequence (it
// replaces the engine's TestCacheLRUEvictionOrder, check for check):
// over-capacity inserts evict the least recently used key, a Get promotes,
// an overwrite replaces in place without evicting.
func TestEvictionOrder(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if ev := c.Put("c", 3); !ev {
		t.Fatal("inserting over capacity must evict")
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("least recently used entry 'a' should have been evicted")
	}
	if got := keys(c); !reflect.DeepEqual(got, []string{"c", "b"}) {
		t.Fatalf("keys = %v, want [c b]", got)
	}
	// Touching 'b' promotes it; the next insert must evict 'c' instead.
	if v, ok := c.Get("b"); !ok || v != 2 {
		t.Fatal("Get(b) failed")
	}
	c.Put("d", 4)
	if _, ok := c.Get("c"); ok {
		t.Fatal("'c' should have been evicted after 'b' was touched")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("'b' should have survived")
	}
	if ev := c.Put("b", 5); ev {
		t.Fatal("overwriting a resident key must not evict")
	}
	if v, _ := c.Get("b"); v != 5 {
		t.Fatal("overwrite did not replace the value")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if New[int, int](0).cap != 1 {
		t.Fatal("a capacity below 1 must clamp to 1")
	}
}

// keys returns the cache's keys from most to least recently used.
func keys[K comparable, V any](c *Cache[K, V]) []K {
	out := make([]K, 0, len(c.items))
	for n := c.root.next; n != &c.root; n = n.next {
		out = append(out, n.key)
	}
	return out
}

// oracle is the naive reference: a slice of pairs kept in MRU-first order.
type oracle struct {
	cap   int
	pairs [][2]int
}

func (o *oracle) find(k int) int {
	for i, p := range o.pairs {
		if p[0] == k {
			return i
		}
	}
	return -1
}

func (o *oracle) remove(i int) [2]int {
	p := o.pairs[i]
	o.pairs = append(o.pairs[:i:i], o.pairs[i+1:]...)
	return p
}

func (o *oracle) front(p [2]int) { o.pairs = append([][2]int{p}, o.pairs...) }

func (o *oracle) get(k int) (int, bool) {
	i := o.find(k)
	if i < 0 {
		return 0, false
	}
	p := o.remove(i)
	o.front(p)
	return p[1], true
}

func (o *oracle) put(k, v int) bool {
	if i := o.find(k); i >= 0 {
		o.remove(i)
		o.front([2]int{k, v})
		return false
	}
	evicted := len(o.pairs) >= o.cap
	if evicted {
		o.remove(len(o.pairs) - 1)
	}
	o.front([2]int{k, v})
	return evicted
}

// TestQuickAgainstOracle drives random Get/Put sequences
// through the cache and the slice oracle and demands, after every step,
// the same return value, the same MRU-first key order and Len <= cap.
func TestQuickAgainstOracle(t *testing.T) {
	prop := func(seed int64, capacity uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		initial := int(capacity % 9) // 0 exercises the clamp
		c := New[int, int](initial)
		o := &oracle{cap: max(initial, 1)}
		for step := 0; step < 400; step++ {
			k, v := rng.Intn(12), rng.Int()
			if rng.Intn(2) == 0 {
				gv, gok := c.Get(k)
				wv, wok := o.get(k)
				if gv != wv || gok != wok {
					t.Logf("seed %d step %d: Get(%d) = %d,%v want %d,%v", seed, step, k, gv, gok, wv, wok)
					return false
				}
			} else if g, w := c.Put(k, v), o.put(k, v); g != w {
				t.Logf("seed %d step %d: Put(%d) evicted=%v want %v", seed, step, k, g, w)
				return false
			}
			want := make([]int, len(o.pairs))
			for i, p := range o.pairs {
				want[i] = p[0]
			}
			if got := keys(c); !reflect.DeepEqual(got, want) || c.Len() != len(want) || c.Len() > c.cap {
				t.Logf("seed %d step %d: keys %v len %d cap %d, want %v", seed, step, got, c.Len(), c.cap, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestHitDoesNotAllocate: the intrusive list is what keeps a hit free, and
// reusing the victim's node what keeps an insert into a full cache free.
func TestHitDoesNotAllocate(t *testing.T) {
	c := New[string, *int](4)
	c.Put("k", new(int))
	c.Put("j", new(int))
	if n := testing.AllocsPerRun(100, func() { c.Get("k"); c.Get("j") }); n != 0 {
		t.Fatalf("Get allocates %v times per run, want 0", n)
	}
	keys, v := []string{"a", "b", "c", "d", "e", "f", "g", "h"}, new(int)
	for _, k := range keys[:4] {
		c.Put(k, v)
	}
	i := 4 // keys[i] is never cached: the cache holds the four before it
	if n := testing.AllocsPerRun(100, func() {
		if !c.Put(keys[i%len(keys)], v) {
			t.Fatal("a Put of a new key into a full cache evicted nothing")
		}
		i++
	}); n != 0 {
		t.Fatalf("Put at capacity allocates %v times per run, want 0", n)
	}
	// A table hit looks its key up by the caller's bytes, never a string
	// made of them.
	tab, _ := newHitTable()
	ent, _, _, _ := tab.Lookup("k", func(*int) error { return nil })
	tab.Fill("k", ent, func() (string, error) { return "K", nil })
	text := []byte("k")
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := tab.Hit(text); !ok {
			t.Fatal("Hit missed a current answer")
		}
	}); n != 0 {
		t.Fatalf("Table.Hit allocates %v times per run, want 0", n)
	}
}

// newHitTable returns a 2-statement table and a reading of its meters
// (PlanHits, Hits, Misses, Evictions, Invalidations) and epoch.
func newHitTable() (*Table[int, string], func() [6]int64) {
	var epoch atomic.Uint64
	var m [5]atomic.Int64
	tab := NewTable[int, string](2, &epoch, Meters{&m[0], &m[1], &m[2], &m[3], &m[4]})
	return tab, func() [6]int64 {
		return [6]int64{m[0].Load(), m[1].Load(), m[2].Load(), m[3].Load(), m[4].Load(), int64(epoch.Load())}
	}
}

// TestTableHit is Hit's oracle case: it serves only text that is a key
// byte for byte, and only while that key's answer was fetched at the
// current epoch. On anything else it changes nothing — no meter, no
// recency, no stale answer cleared — so the Lookup a caller then makes
// counts exactly as if Hit had not run.
func TestTableHit(t *testing.T) {
	tab, meters := newHitTable()
	noPlan := func(*int) error { return nil }
	fetch := func(v string) func() (string, error) { return func() (string, error) { return v, nil } }
	// unchanged asserts that Hit(text) misses and leaves table and meters be.
	unchanged := func(text string) {
		t.Helper()
		before, order := meters(), keys(tab.tab)
		if res, ok := tab.Hit([]byte(text)); ok || res != "" {
			t.Fatalf("Hit(%q) = %q, %v; want a miss", text, res, ok)
		}
		if after := meters(); after != before || !reflect.DeepEqual(keys(tab.tab), order) {
			t.Fatalf("a missed Hit(%q) moved the table: meters %v → %v, keys %v → %v", text, before, after, order, keys(tab.tab))
		}
	}
	hit := func(text, answer string) {
		t.Helper()
		before := meters()
		if res, ok := tab.Hit([]byte(text)); !ok || res != answer {
			t.Fatalf("Hit(%q) = %q, %v; want %q", text, res, ok, answer)
		}
		want := before
		want[0]++ // one plan found
		want[1]++ // one answer served
		if got := meters(); got != want {
			t.Fatalf("Hit(%q) moved meters %v → %v, want %v", text, before, got, want)
		}
		if k := keys(tab.tab); k[0] != text {
			t.Fatalf("Hit(%q) left keys %v; a hit marks its entry most recently used", text, k)
		}
	}

	unchanged("a") // no entry
	a, _, _, _ := tab.Lookup("a", noPlan)
	unchanged("a") // planned, no answer yet
	tab.Fill("a", a, fetch("A"))
	for _, near := range []string{"", " a", "a ", "A", "aa", "a\x00"} {
		unchanged(near) // not the key byte for byte
	}
	hit("a", "A")
	b, _, _, _ := tab.Lookup("b", noPlan)
	tab.Fill("b", b, fetch("B"))
	hit("a", "A") // the older entry moves to the front
	hit("b", "B")

	// A write overtakes both answers: Hit neither serves nor clears them,
	// so the Lookup after it finds the stale answer and counts the
	// invalidation itself.
	tab.epoch.Add(1)
	unchanged("a")
	if !a.ok {
		t.Fatal("a missed Hit cleared the stale answer")
	}
	before := meters()
	if _, _, ok, _ := tab.Lookup("a", noPlan); ok {
		t.Fatal("Lookup served a stale answer")
	}
	if got := meters(); got[0] != before[0]+1 || got[4] != before[4]+1 || got[1] != before[1] {
		t.Fatalf("Lookup after a missed Hit: meters %v → %v, want one plan hit and one invalidation", before, got)
	}
	// An answer fetched across a write is not stored, so not served.
	tab.Fill("a", a, func() (string, error) { tab.epoch.Add(1); return "A1", nil })
	unchanged("a")
	tab.Fill("a", a, fetch("A2"))
	hit("a", "A2")
	unchanged("b") // still stale
}
