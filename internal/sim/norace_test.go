//go:build !race

package sim

// raceEnabled reports whether the test binary runs under the race
// detector, which changes allocation counts: the allocation fences skip.
const raceEnabled = false
