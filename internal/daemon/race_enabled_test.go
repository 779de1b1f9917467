//go:build race

package daemon

// raceEnabled reports whether the race detector is active; allocation-count
// assertions are skipped under it.
const raceEnabled = true
