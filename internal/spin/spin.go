// Package spin is the spin detector that charges synchronization spinning
// to the speedup stack (paper Section 4.3).
//
// The paper's detector follows Tian et al.: a small per-core load table
// watches load instructions; a load that returns the same value more than a
// threshold number of times is marked as a candidate spin load, and when a
// marked load finally observes a different value that was written by another
// core, the elapsed time since the load's first occurrence is classified as
// spinning. (The paper also considers Li et al.'s backward-branch scheme and
// selects Tian's for its lower hardware cost.)
//
// The simulator fast-forwards each spin loop as one blocked interval, which
// fixes the load stream the table sees: one spin load (one PC, one lock or
// barrier word) returning the old value once per loop iteration, then the
// remotely written new value when the wait ends. Such an episode touches one
// table entry, and its first load resets that entry — a miss allocates it,
// and a hit finds the previous episode's new value, which differs, so the
// entry restarts unmarked. The entry then counts the episode's dur/period
// iterations, is marked iff that count exceeds the threshold, and the final
// load charges the whole episode or nothing. No other entry and no
// replacement decision enters, so no capacity ≥ 1 changes an outcome: the
// detector is the one comparison Config.Detected. The tests keep the table
// as its reference model, and the hardware budget still prices the paper's
// 8-entry table (core.PaperCostParams).
package spin

import "fmt"

// Config parameterizes the Tian-style detector.
type Config struct {
	// Threshold is the number of identical-value repetitions after which a
	// load is marked as a candidate spin load.
	Threshold int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Threshold <= 0 {
		return fmt.Errorf("spin: non-positive parameter %+v", c)
	}
	return nil
}

// Detected returns the spin cycles charged for one spin episode of dur
// cycles whose loop body takes period (positive) cycles: all of dur when the
// loop ran more than Threshold iterations, nothing otherwise. An episode
// shorter than (Threshold+1) × period goes undetected, an error source the
// paper acknowledges in Section 6.
func (c Config) Detected(dur, period uint64) uint64 {
	if dur/period > uint64(c.Threshold) {
		return dur
	}
	return 0
}
