package cpu

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{DispatchWidth: 0}).Validate(); err == nil {
		t.Fatal("zero width accepted")
	}
	// The simulator rounds dispatch with a shift (TestDispatchRoundingMatchesComputeCycles
	// in internal/sim), so a width that is not a power of two is rejected.
	if err := (Config{DispatchWidth: 3}).Validate(); err == nil || !strings.Contains(err.Error(), "dispatch width") {
		t.Fatalf("width 3: %v", err)
	}
}

func TestComputeCyclesRounding(t *testing.T) {
	c := Default() // width 4
	cases := []struct{ instrs, cycles uint64 }{
		{0, 0}, {1, 1}, {3, 1}, {4, 1}, {5, 2}, {8, 2}, {9, 3}, {400, 100},
	}
	for _, tc := range cases {
		if got := c.ComputeCycles(tc.instrs); got != tc.cycles {
			t.Errorf("ComputeCycles(%d) = %d, want %d", tc.instrs, got, tc.cycles)
		}
	}
}

func TestBlockingMissStall(t *testing.T) {
	c := Default() // base 12, overlap 24
	if got := c.BlockingMissStall(100); got != 100+12-24 {
		t.Fatalf("stall = %d", got)
	}
	// Fully hidden short miss.
	if got := c.BlockingMissStall(5); got != 0 {
		t.Fatalf("short miss stall = %d, want 0", got)
	}
}

func TestExposedInterferenceProportional(t *testing.T) {
	c := Default()
	// When nothing is hidden the interference passes through scaled by
	// stall/total.
	lat := uint64(188) // total 200, stall 176
	interf := uint64(100)
	want := interf * c.BlockingMissStall(lat) / (c.LLCMissBase + lat)
	if got := c.ExposedInterference(interf, lat); got != want {
		t.Fatalf("exposed = %d, want %d", got, want)
	}
	if got := c.ExposedInterference(0, lat); got != 0 {
		t.Fatalf("zero interference produced %d", got)
	}
}

func TestExposedInterferenceNeverExceedsRaw(t *testing.T) {
	c := Default()
	f := func(interf, lat uint16) bool {
		e := c.ExposedInterference(uint64(interf), uint64(lat))
		return e <= uint64(interf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExposedInterferenceMonotoneInLatency(t *testing.T) {
	c := Default()
	prev := uint64(0)
	for lat := uint64(0); lat < 500; lat += 10 {
		e := c.ExposedInterference(50, lat)
		if e < prev {
			t.Fatalf("exposed interference decreased at lat=%d: %d < %d", lat, e, prev)
		}
		prev = e
	}
}
