//go:build !race

package tofu

// raceEnabled reports that the race detector is on; its instrumentation
// allocates, so allocation counts are meaningless under it.
const raceEnabled = false
