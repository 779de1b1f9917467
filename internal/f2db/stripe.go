package f2db

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Write-path striping (DESIGN.md §6): base series are partitioned into N
// stripes by a hash of their node ID, and every stripe's mutex guards its
// base series' slots of the pending column (DB.pending, DB.present).
// Concurrent insert streams touching different stripes never contend; the
// engine write lock is only taken when a batch completes and time advances —
// a cross-stripe barrier that must still see the whole column at once.
//
// The stripe count is fixed at Open (Options.Stripes), a power of two so
// routing is a multiply and a shift. Stripe membership is deterministic:
// the same node always routes to the same stripe, which keeps snapshots,
// restores and the twin-engine tests reproducible.

// maxWriteStripes bounds the stripe count; past the point where every
// hardware thread owns a stripe, more stripes only cost barrier time.
const maxWriteStripes = 256

// writeStripe is one shard of the pending insert batch: the lock over the
// pending-column slots of the base series routed to it.
type writeStripe struct {
	mu sync.Mutex
	// bases is the number of base series routed to this stripe (fixed at
	// Open); the stripe is full when depth == bases.
	bases int
	// depth counts the stripe's slots that hold a value, so Metrics can
	// report per-stripe queue depth without taking mu.
	depth atomic.Int64
	// contention counts lock acquisitions that found the stripe locked.
	contention atomic.Int64
}

// lock acquires the stripe mutex, counting contended acquisitions.
func (s *writeStripe) lock() {
	if s.mu.TryLock() {
		return
	}
	s.contention.Add(1)
	s.mu.Lock()
}

// resolveStripeCount normalizes Options.Stripes: 0 picks a power of two
// near GOMAXPROCS, negative forces the single-stripe (pre-striping) layout,
// anything else is rounded up to the next power of two and clamped.
func resolveStripeCount(opt int) int {
	n := opt
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		return 1
	}
	if n > maxWriteStripes {
		n = maxWriteStripes
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// stripeShiftFor returns the shift s with 1<<s == n (n a power of two).
func stripeShiftFor(n int) uint {
	s := uint(0)
	for 1<<s < n {
		s++
	}
	return s
}

// stripeIndex routes a node ID to its stripe: a Fibonacci hash spreads
// consecutive IDs (base series are enumerated contiguously) evenly over the
// stripes. shift is log2 of the stripe count; for a single stripe the whole
// hash shifts out and every node routes to stripe 0.
func stripeIndex(id int, shift uint) int {
	return int((uint64(id) * 0x9E3779B97F4A7C15) >> (64 - shift))
}

// stripeFor returns the stripe owning a base node ID.
func (db *DB) stripeFor(id int) *writeStripe {
	return &db.stripes[stripeIndex(id, db.stripeShift)]
}
