package spin

import "testing"

func cfg() Config { return Config{TableEntries: 8, Threshold: 16} }

func TestConfigValidate(t *testing.T) {
	if err := cfg().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{TableEntries: 0, Threshold: 4}).Validate(); err == nil {
		t.Fatal("zero entries accepted")
	}
}

func TestDetectsSpinAboveThreshold(t *testing.T) {
	d := NewDetector(cfg())
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
	d := NewDetector(cfg())
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
	d := NewDetector(cfg())
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
	d := NewDetector(Config{TableEntries: 2, Threshold: 4})
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

func TestEpisodeIterations(t *testing.T) {
	ep := Episode{Start: 100, End: 1300, Period: 12}
	if got := ep.Iterations(); got != 100 {
		t.Fatalf("iterations = %d, want 100", got)
	}
	if (Episode{Start: 100, End: 100, Period: 12}).Iterations() != 0 {
		t.Fatal("empty episode has iterations")
	}
}

func TestFeedEpisodeDetected(t *testing.T) {
	d := NewDetector(cfg())
	ep := Episode{PC: 0x50, Addr: 0x2000, Start: 1000, Period: 12, End: 4000,
		OldValue: 0, NewValue: 1}
	got := FeedEpisode(d, ep)
	if got != 3000 {
		t.Fatalf("detected %d, want 3000", got)
	}
}

func TestFeedEpisodeTooShort(t *testing.T) {
	d := NewDetector(cfg())
	// 8 iterations < threshold: undetected, an error source the paper
	// acknowledges in Section 6.
	ep := Episode{PC: 0x50, Addr: 0x2000, Start: 1000, Period: 12, End: 1096,
		OldValue: 0, NewValue: 1}
	if got := FeedEpisode(d, ep); got != 0 {
		t.Fatalf("short episode detected: %d", got)
	}
}

func TestFeedEpisodeRepeats(t *testing.T) {
	// The same lock PC spins repeatedly; each episode is detected afresh.
	d := NewDetector(cfg())
	total, episodes := uint64(0), 0
	for i := 0; i < 5; i++ {
		start := uint64(i * 100000)
		got := FeedEpisode(d, Episode{
			PC: 0x60, Addr: 0x3000, Start: start, Period: 12,
			End: start + 2400, OldValue: 0, NewValue: 1,
		})
		total += got
		if got != 0 {
			episodes++
		}
	}
	if total != 5*2400 {
		t.Fatalf("total detected %d, want %d", total, 5*2400)
	}
	if episodes != 5 {
		t.Fatalf("episodes = %d, want 5", episodes)
	}
}
