//go:build !race

package coord

// raceEnabled reports whether the race detector is active; allocation-count
// assertions are skipped under it.
const raceEnabled = false
