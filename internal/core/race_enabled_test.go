//go:build race

package core

// raceEnabled reports whether the race detector is active; allocation-count
// gates are skipped under it.
const raceEnabled = true
