package cpu

import (
	"testing"
	"testing/quick"
)

func TestComputeCyclesRounding(t *testing.T) {
	// Width 4.
	cases := []struct{ instrs, cycles uint64 }{
		{0, 0}, {1, 1}, {3, 1}, {4, 1}, {5, 2}, {8, 2}, {9, 3}, {400, 100},
	}
	for _, tc := range cases {
		if got := ComputeCycles(tc.instrs); got != tc.cycles {
			t.Errorf("ComputeCycles(%d) = %d, want %d", tc.instrs, got, tc.cycles)
		}
	}
}

func TestBlockingMissStall(t *testing.T) {
	if got := BlockingMissStall(100); got != 100+LLCMissBase-MLPOverlap {
		t.Fatalf("stall = %d", got)
	}
	// Fully hidden short miss.
	if got := BlockingMissStall(5); got != 0 {
		t.Fatalf("short miss stall = %d, want 0", got)
	}
}

func TestExposedInterferenceProportional(t *testing.T) {
	// When nothing is hidden the interference passes through scaled by
	// stall/total.
	lat := uint64(188) // total 200, stall 176
	interf := uint64(100)
	want := interf * BlockingMissStall(lat) / (LLCMissBase + lat)
	if got := ExposedInterference(interf, lat); got != want {
		t.Fatalf("exposed = %d, want %d", got, want)
	}
	if got := ExposedInterference(0, lat); got != 0 {
		t.Fatalf("zero interference produced %d", got)
	}
}

func TestExposedInterferenceNeverExceedsRaw(t *testing.T) {
	f := func(interf, lat uint16) bool {
		e := ExposedInterference(uint64(interf), uint64(lat))
		return e <= uint64(interf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExposedInterferenceMonotoneInLatency(t *testing.T) {
	prev := uint64(0)
	for lat := uint64(0); lat < 500; lat += 10 {
		e := ExposedInterference(50, lat)
		if e < prev {
			t.Fatalf("exposed interference decreased at lat=%d: %d < %d", lat, e, prev)
		}
		prev = e
	}
}
