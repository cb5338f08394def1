package spin

import "testing"

func TestConfigValidate(t *testing.T) {
	if err := (Config{Threshold: 16}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{Threshold: 0}).Validate(); err == nil {
		t.Fatal("zero threshold accepted")
	}
}

// TestDetected pins the closed form at the default threshold (16) and spin
// loop (12 cycles): an episode is charged whole iff it lasts at least
// (16+1) × 12 = 204 cycles.
func TestDetected(t *testing.T) {
	c := Config{Threshold: 16}
	for _, tc := range []struct {
		name      string
		dur, want uint64
	}{
		{"episode_iterations", 1200, 1200}, // 100 iterations
		{"empty_episode", 0, 0},
		{"feed_episode_detected", 3000, 3000},
		{"feed_episode_too_short", 96, 0}, // 8 iterations
		{"feed_episode_repeats", 2400, 2400},
		{"one_cycle_short", 203, 0}, // 16 iterations: not more than the threshold
		{"at_the_boundary", 204, 204},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := c.Detected(tc.dur, 12); got != tc.want {
				t.Fatalf("Detected(%d, 12) = %d, want %d", tc.dur, got, tc.want)
			}
		})
	}
}
