package spin

import (
	"math/rand"
	"testing"
)

// The Tian load table, kept as Config.Detected's reference model: the tests
// feed it the load stream of each fast-forwarded spin episode.

// entry is one load-table row: PC, address, last value, a repetition count,
// the mark bit, and the timestamp of the first occurrence — exactly the
// fields the paper's cost model enumerates (Section 4.7).
type entry struct {
	pc        uint64
	addr      uint64
	value     uint64
	count     int
	marked    bool
	firstTime uint64
	valid     bool
}

// Detector is the Tian-style per-core spin detector.
type Detector struct {
	cfg     Config
	entries []entry
}

// newTable returns a Detector with the given load-table capacity.
func newTable(entries, threshold int) *Detector {
	return &Detector{cfg: Config{Threshold: threshold}, entries: make([]entry, entries)}
}

// ObserveLoad feeds one dynamic load into the detector. writtenByOther
// reports whether the loaded value was produced by a store from another core
// (the hardware learns this from the coherence protocol). It returns the
// spin cycles detected by this load (non-zero only when a marked load
// observes a remotely-written new value).
func (d *Detector) ObserveLoad(now, pc, addr, value uint64, writtenByOther bool) uint64 {
	e := d.find(pc)
	if e == nil {
		e = d.insert(pc)
		*e = entry{pc: pc, addr: addr, value: value, count: 1, firstTime: now, valid: true}
		return 0
	}
	if e.addr == addr && e.value == value {
		e.count++
		if e.count > d.cfg.Threshold {
			e.marked = true
		}
		return 0
	}
	// Value (or address) changed. An episode that ends unmarked, below the
	// threshold, goes undetected (an error source in the paper's validation,
	// Section 6).
	detected := uint64(0)
	if e.marked && writtenByOther && now > e.firstTime {
		detected = now - e.firstTime
	}
	*e = entry{pc: pc, addr: addr, value: value, count: 1, firstTime: now, valid: true}
	return detected
}

func (d *Detector) find(pc uint64) *entry {
	for i := range d.entries {
		if d.entries[i].valid && d.entries[i].pc == pc {
			return &d.entries[i]
		}
	}
	return nil
}

// insert victimizes an empty entry or the one with the oldest first
// occurrence (FIFO-ish replacement keeps the hardware trivial).
func (d *Detector) insert(pc uint64) *entry {
	victim := &d.entries[0]
	for i := range d.entries {
		e := &d.entries[i]
		if !e.valid {
			return e
		}
		if e.firstTime < victim.firstTime {
			victim = e
		}
	}
	return victim
}

// Episode describes one fast-forwarded spin interval; the simulator models
// test-and-test-and-set spinning as a blocked state (the spin loop hits the
// local L1 until the lock transfer), and FeedEpisode synthesizes the load
// stream the detector would have seen.
type Episode struct {
	// PC and Addr identify the spin load (the lock or barrier word).
	PC, Addr uint64
	// Start is the time of the first spin-loop load.
	Start uint64
	// Period is the spin-loop iteration time in cycles.
	Period uint64
	// End is the time the awaited value changed (lock granted / barrier
	// released). The final load observes the new value.
	End uint64
	// OldValue/NewValue are the lock-word values before/after the change.
	OldValue, NewValue uint64
}

// Iterations returns the number of same-value loop iterations the episode
// would execute.
func (e Episode) Iterations() uint64 {
	if e.End <= e.Start || e.Period == 0 {
		return 0
	}
	return (e.End - e.Start) / e.Period
}

// FeedEpisode replays an episode into the detector without materializing
// every load: outcomes depend only on whether the iteration count crosses
// the threshold, so repetitions beyond threshold+1 are collapsed. It returns
// the spin cycles the detector charges for the episode.
func FeedEpisode(d *Detector, ep Episode) uint64 {
	iters := ep.Iterations()
	if iters == 0 {
		return 0
	}
	feed := iters
	if max := uint64(d.cfg.Threshold + 2); feed > max {
		feed = max
	}
	for i := uint64(0); i < feed; i++ {
		// Spread the collapsed observations across the true interval so the
		// recorded firstTime is exact.
		t := ep.Start + i*ep.Period
		d.ObserveLoad(t, ep.PC, ep.Addr, ep.OldValue, false)
	}
	return d.ObserveLoad(ep.End, ep.PC, ep.Addr, ep.NewValue, true)
}

// TestDetectedMatchesTable holds Config.Detected to the Tian load table on
// the episodes the simulator produces: one spin load per episode, PCs
// interleaved across episodes so entries are shared, evicted and reused, at
// several capacities, thresholds and loop periods, with durations clustered
// where the outcome flips.
func TestDetectedMatchesTable(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, entries := range []int{1, 2, 3, 8} {
		for _, th := range []int{1, 4, 16, 64, 256} {
			d, c := newTable(entries, th), Config{Threshold: th}
			now := uint64(0)
			for i := 0; i < 1000; i++ {
				pc := uint64(rng.Intn(12))
				period := uint64(1 + rng.Intn(20))
				edge := uint64(th) * period
				var dur uint64
				switch rng.Intn(4) {
				case 0: // anywhere up to four times the edge
					dur = uint64(rng.Int63n(int64(4*edge + period)))
				case 1: // within a few loop periods of zero
					dur = uint64(rng.Int63n(int64(3 * period)))
				default: // within two periods of the flip at edge + period
					dur = edge - period + uint64(rng.Int63n(int64(4*period)))
				}
				start := now + uint64(rng.Intn(100))
				ep := Episode{
					PC: 0xE000_0000 + pc*16, Addr: 0xF000_0000_0000 + pc*64,
					Start: start, Period: period, End: start + dur,
					OldValue: 0, NewValue: 1,
				}
				if got, want := c.Detected(dur, period), FeedEpisode(d, ep); got != want {
					t.Fatalf("%d entries, threshold %d, episode %d (pc %d, dur %d, period %d): Detected %d, table %d",
						entries, th, i, pc, dur, period, got, want)
				}
				now = ep.End
			}
		}
	}
}

func TestDetectsSpinAboveThreshold(t *testing.T) {
	d := newTable(8, 16)
	pc, addr := uint64(0x40), uint64(0x1000)
	for i := 0; i <= 20; i++ {
		if got := d.ObserveLoad(uint64(i*10), pc, addr, 0, false); got != 0 {
			t.Fatalf("premature detection at iteration %d", i)
		}
	}
	detected := d.ObserveLoad(300, pc, addr, 1, true)
	if detected != 300 {
		t.Fatalf("detected %d cycles, want 300 (first load at t=0)", detected)
	}
	// The episode is charged once: the entry restarted with the new value.
	if got := d.ObserveLoad(310, pc, addr, 0, true); got != 0 {
		t.Fatalf("episode charged twice (%d more cycles)", got)
	}
}

func TestBelowThresholdUndetected(t *testing.T) {
	d := newTable(8, 16)
	pc, addr := uint64(0x40), uint64(0x1000)
	for i := 0; i < 10; i++ { // 10 repetitions < threshold 16
		d.ObserveLoad(uint64(i*10), pc, addr, 0, false)
	}
	if got := d.ObserveLoad(200, pc, addr, 1, true); got != 0 {
		t.Fatalf("short episode detected (%d cycles)", got)
	}
	if e := d.find(pc); e == nil || e.count != 1 || e.marked {
		t.Fatalf("entry not restarted after the missed episode: %+v", e)
	}
}

func TestLocalWriteDoesNotTrigger(t *testing.T) {
	d := newTable(8, 16)
	pc, addr := uint64(0x40), uint64(0x1000)
	for i := 0; i < 30; i++ {
		d.ObserveLoad(uint64(i*10), pc, addr, 0, false)
	}
	// Value changed but written by this core: not a spin release.
	if got := d.ObserveLoad(400, pc, addr, 1, false); got != 0 {
		t.Fatalf("locally-written change classified as spin (%d)", got)
	}
}

func TestTableEviction(t *testing.T) {
	d := newTable(2, 4)
	// Three PCs compete for two entries; the oldest is evicted.
	d.ObserveLoad(0, 0x10, 0x100, 0, false)
	d.ObserveLoad(10, 0x20, 0x200, 0, false)
	d.ObserveLoad(20, 0x30, 0x300, 0, false) // evicts PC 0x10
	if d.find(0x10) != nil {
		t.Fatal("oldest entry not evicted")
	}
	if d.find(0x20) == nil || d.find(0x30) == nil {
		t.Fatal("surviving entries missing")
	}
}
