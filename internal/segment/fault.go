package segment

import "io"

// FaultWriter wraps an io.Writer with byte-exact write faults, the unit-
// level sibling of MemFS's filesystem faults: where MemFS models what a
// crash preserves, FaultWriter models what a failing device does to the
// byte stream itself. The recovery tests drive WAL records through it to
// produce torn records, short writes and flipped bits at chosen offsets.
type FaultWriter struct {
	W io.Writer
	// Mode selects the fault; N is the byte offset (in the stream written
	// through this wrapper) at which it fires.
	Mode FaultMode
	N    int64

	written int64
	dead    bool
	fired   bool
}

// FaultMode enumerates the injected behaviors.
type FaultMode int

const (
	// FaultNone passes writes through unchanged.
	FaultNone FaultMode = iota
	// FaultKillAt stops the stream at offset N: the write reaching N
	// persists its prefix and fails, and every later write fails without
	// persisting anything — a process killed mid-append.
	FaultKillAt
	// FaultTorn persists the prefix up to N of the single write that
	// crosses it and fails that write; later writes pass through — a
	// sector-torn append the device completed around.
	FaultTorn
	// FaultShort persists the prefix up to N of the crossing write and
	// returns the short count without an error, exercising callers that
	// fail to check n < len(p).
	FaultShort
	// FaultFlipBit flips the lowest bit of the byte at stream offset N and
	// otherwise passes everything through — silent corruption.
	FaultFlipBit
)

// Write implements io.Writer with the armed fault.
func (f *FaultWriter) Write(p []byte) (int, error) {
	start := f.written
	switch f.Mode {
	case FaultKillAt:
		if f.dead {
			return 0, ErrInjected
		}
		if start+int64(len(p)) > f.N {
			keep := f.N - start
			if keep < 0 {
				keep = 0
			}
			n, _ := f.W.Write(p[:keep])
			f.written += int64(n)
			f.dead = true
			return n, ErrInjected
		}
	case FaultTorn, FaultShort:
		// Only the single write crossing N is cut; the cut stops the stream
		// at N, so without the fired latch every later write would cross N
		// again and the "device recovered" semantics would never happen.
		if !f.fired && start <= f.N && start+int64(len(p)) > f.N {
			f.fired = true
			keep := f.N - start
			n, _ := f.W.Write(p[:keep])
			f.written += int64(n)
			if f.Mode == FaultShort {
				return n, nil
			}
			return n, ErrInjected
		}
	case FaultFlipBit:
		if start <= f.N && start+int64(len(p)) > f.N {
			q := append([]byte(nil), p...)
			q[f.N-start] ^= 1
			n, err := f.W.Write(q)
			f.written += int64(n)
			return n, err
		}
	}
	n, err := f.W.Write(p)
	f.written += int64(n)
	return n, err
}
