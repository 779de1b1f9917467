package lru

import (
	"math/rand"
	"reflect"
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
}
