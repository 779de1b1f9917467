// Package lru is the one bounded statement-keyed table in the system: a
// least-recently-used map that the engine's plan cache and the
// coordinator's read table both instantiate. It is deliberately
// unsynchronised — every caller already owns a mutex that guards more than
// the table (metrics ordering), so a second lock inside would only be paid
// twice on the hit path.
package lru

// Cache is a fixed-capacity map that evicts the least recently used entry.
// The recency list is intrusive (each map value is its own list node), so
// a hit costs no allocation, and neither does an insert into a full cache:
// it reuses the evicted entry's node. Not safe for concurrent use; callers
// hold their own lock.
type Cache[K comparable, V any] struct {
	cap   int
	items map[K]*node[K, V]
	// root is the list sentinel: root.next is the most recently used
	// entry, root.prev the least.
	root node[K, V]
}

type node[K comparable, V any] struct {
	prev, next *node[K, V]
	key        K
	val        V
}

// New returns a cache holding at most capacity entries; capacities below 1
// are raised to 1.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	c := &Cache[K, V]{cap: capacity, items: make(map[K]*node[K, V], capacity)}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

func (c *Cache[K, V]) unlink(n *node[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
}

func (c *Cache[K, V]) pushFront(n *node[K, V]) {
	n.prev, n.next = &c.root, c.root.next
	n.prev.next, n.next.prev = n, n
}

// evictOldest removes the least recently used entry and returns its node.
func (c *Cache[K, V]) evictOldest() *node[K, V] {
	n := c.root.prev
	c.unlink(n)
	delete(c.items, n.key)
	return n
}

// Get returns the value stored under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (v V, ok bool) {
	n, ok := c.items[k]
	if !ok {
		return v, false
	}
	c.unlink(n)
	c.pushFront(n)
	return n.val, true
}

// Put stores v under k as the most recently used entry, replacing any
// value already there. It reports whether a different entry — the least
// recently used — was evicted to make room.
func (c *Cache[K, V]) Put(k K, v V) (evicted bool) {
	if n, ok := c.items[k]; ok {
		n.val = v
		c.unlink(n)
		c.pushFront(n)
		return false
	}
	var n *node[K, V]
	if len(c.items) >= c.cap {
		n = c.evictOldest()
		evicted = true
	} else {
		n = new(node[K, V])
	}
	n.key, n.val = k, v
	c.items[k] = n
	c.pushFront(n)
	return evicted
}

// Delete removes k and reports whether it was present.
func (c *Cache[K, V]) Delete(k K) bool {
	n, ok := c.items[k]
	if ok {
		c.unlink(n)
		delete(c.items, k)
	}
	return ok
}

// Len returns the number of entries.
func (c *Cache[K, V]) Len() int { return len(c.items) }

// Keys returns the keys from most to least recently used.
func (c *Cache[K, V]) Keys() []K {
	out := make([]K, 0, len(c.items))
	for n := c.root.next; n != &c.root; n = n.next {
		out = append(out, n.key)
	}
	return out
}
