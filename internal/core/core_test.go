package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStackFormulaIdentity(t *testing.T) {
	// Property (Formula 4): Ŝ = N − ΣO/Tp + ΣP/Tp, and Base = Ŝ − P/Tp.
	f := func(neg, pos, mem, spin, yield, imbal uint32, tpRaw uint32) bool {
		tp := uint64(tpRaw)%1_000_000 + 1000
		c := Components{
			NegLLC: float64(neg % 100_000), PosLLC: float64(pos % 100_000),
			NegMem: float64(mem % 100_000), Spin: float64(spin % 100_000),
			Yield: float64(yield % 100_000), Imbalance: float64(imbal % 100_000),
		}
		s := Stack{N: 16, Tp: tp, Components: c}
		want := 16 - c.OverheadTotal()/float64(tp) + c.PosLLC/float64(tp)
		if math.Abs(s.Estimated()-want) > 1e-9 {
			return false
		}
		if math.Abs(s.Base()-(s.Estimated()-c.PosLLC/float64(tp))) > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNetInterference(t *testing.T) {
	c := Components{NegLLC: 100, PosLLC: 30}
	if c.Net() != 70 {
		t.Fatalf("net = %v", c.Net())
	}
}

func TestErrorFormula(t *testing.T) {
	s := Stack{N: 4, Tp: 1000, ActualSpeedup: 3.0}
	// No overheads: estimated = 4; error = (4-3)/4.
	if got := s.Error(); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("error = %v", got)
	}
}

func TestErrorPanicsWithoutActual(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	_ = Stack{N: 4, Tp: 1000}.Error()
}

func TestEstimateComponentsExtrapolation(t *testing.T) {
	tp := uint64(100_000)
	threads := []ThreadCounters{{
		LLCAccesses:                 3200,
		SampledATDAccesses:          100, // run-time sampling factor 32
		SampledInterThreadMissStall: 500,
		SampledInterThreadHits:      10,
		LLCLoadMisses:               100,
		StallLLCLoadMiss:            20_000, // avg penalty 200
		MemInterferenceEst:          4_000,
		SpinDetected:                1_000,
		YieldCycles:                 2_000,
		FinishTime:                  90_000,
	}}
	c := EstimateComponents(tp, threads)
	if c.NegLLC != 500*32 {
		t.Fatalf("NegLLC = %v, want %v", c.NegLLC, 500*32)
	}
	if c.PosLLC != 10*32*200 {
		t.Fatalf("PosLLC = %v, want %v", c.PosLLC, 10*32*200)
	}
	if c.NegMem != 4000 {
		t.Fatalf("NegMem = %v", c.NegMem)
	}
	if c.Spin != 1000 || c.Yield != 2000 {
		t.Fatalf("spin/yield = %v/%v", c.Spin, c.Yield)
	}
	if c.Imbalance != 10_000 {
		t.Fatalf("imbalance = %v", c.Imbalance)
	}
}

func TestEstimateComponentsMemDedup(t *testing.T) {
	// Memory interference belonging to inter-thread misses must not be
	// counted twice: it is deducted (after extrapolation) from NegMem.
	tp := uint64(100_000)
	threads := []ThreadCounters{{
		LLCAccesses:                     320,
		SampledATDAccesses:              10,
		SampledInterThreadMissStall:     100,
		SampledInterThreadMissMemInterf: 50,
		MemInterferenceEst:              2_000,
		FinishTime:                      tp,
	}}
	c := EstimateComponents(tp, threads)
	if c.NegMem != 2000-50*32 {
		t.Fatalf("NegMem = %v, want %v", c.NegMem, 2000-50*32)
	}
	// If the extrapolated deduction exceeds the total, NegMem clamps to 0.
	threads[0].SampledInterThreadMissMemInterf = 100
	c = EstimateComponents(tp, threads)
	if c.NegMem != 0 {
		t.Fatalf("NegMem = %v, want 0", c.NegMem)
	}
}

func TestOracleComponentsIncludeHiddenTerms(t *testing.T) {
	tp := uint64(50_000)
	threads := []ThreadCounters{{
		SampledInterThreadMissStall:     300,
		SampledInterThreadHits:          5,
		SampledInterThreadMissMemInterf: 100,
		LLCLoadMisses:                   10,
		StallLLCLoadMiss:                1_000, // avg 100
		MemInterferenceEst:              700,
		SpinDetected:                    9_000, // the estimator's view: unused
		OracleSpinCycles:                400,
		YieldCycles:                     800,
		OracleCoherenceStall:            150,
		OverheadInstrs:                  4_000,
		FinishTime:                      tp,
	}}
	c := OracleComponents(tp, threads, 0.25)
	if c.NegLLC != 300 || c.PosLLC != 500 || c.NegMem != 600 {
		t.Fatalf("cache/mem components wrong: %+v", c)
	}
	if c.Spin != 400 || c.Yield != 800 {
		t.Fatalf("spin/yield = %v/%v", c.Spin, c.Yield)
	}
	if c.Coherence != 150 {
		t.Fatalf("coherence = %v", c.Coherence)
	}
	if c.ParallelOverhead != 1000 {
		t.Fatalf("overhead = %v", c.ParallelOverhead)
	}
	// The LLC and memory terms are the estimator's own, extrapolated by its
	// sampling factor; coherence by the detailed-walk factor of fast mode.
	threads[0].LLCAccesses, threads[0].SampledATDAccesses = 800, 100
	threads[0].DetailedLLCAccesses = 200
	threads[0].MemInterferenceEst = 1_000
	c = OracleComponents(tp, threads, 0.25)
	e := EstimateComponents(tp, threads)
	if c.NegLLC != 300*8 || c.NegLLC != e.NegLLC || c.PosLLC != e.PosLLC ||
		c.NegMem != 1_000-100*8 || c.NegMem != e.NegMem {
		t.Fatalf("LLC and memory terms not shared with the estimator: %+v vs %+v", c, e)
	}
	if c.Coherence != 150*4 {
		t.Fatalf("extrapolated coherence = %v, want %v", c.Coherence, 150*4)
	}
}

func TestClampComponents(t *testing.T) {
	tp := uint64(1000)
	threads := []ThreadCounters{{
		SpinDetected: 10_000_000, // absurd: beyond N x Tp
		FinishTime:   tp,
	}}
	c := EstimateComponents(tp, threads)
	if c.OverheadTotal() > float64(tp)*1.0001 {
		t.Fatalf("overheads not clamped: %v", c.OverheadTotal())
	}
}

func TestSamplingFactorFallback(t *testing.T) {
	// With nothing sampled, raw (unextrapolated) values pass through.
	tp := uint64(10_000)
	threads := []ThreadCounters{{
		LLCAccesses:                 100,
		SampledInterThreadMissStall: 77,
		FinishTime:                  tp,
	}}
	c := EstimateComponents(tp, threads)
	if c.NegLLC != 77 {
		t.Fatalf("NegLLC = %v, want 77", c.NegLLC)
	}
}

func TestHardwareCostMatchesPaper(t *testing.T) {
	b := Cost(PaperCostParams())
	// The line items: 16 sampled sets x 16 ways x 26 bits of ATD, an
	// 8-entry ORA at 6 bytes, twelve 48-bit counters.
	if b.ATDBytes != 832 || b.ORABytes != 48 || b.CounterBytes != 72 {
		t.Fatalf("ATD/ORA/counters = %d/%d/%d B, want 832/48/72", b.ATDBytes, b.ORABytes, b.CounterBytes)
	}
	if b.InterferenceBytes() != 952 {
		t.Fatalf("interference budget = %d B, want 952", b.InterferenceBytes())
	}
	if b.SpinTableBytes != 217 {
		t.Fatalf("spin table = %d B, want 217", b.SpinTableBytes)
	}
	if b.PerCoreBytes() != 1169 {
		t.Fatalf("per-core = %d B, want 1169 (~1.1 KB)", b.PerCoreBytes())
	}
	total := b.TotalBytes(16)
	if total < 18_000 || total > 19_000 {
		t.Fatalf("16-core total = %d B, want ~18 KB", total)
	}
}
