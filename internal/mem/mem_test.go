package mem

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func testCfg() Config {
	return Config{
		Banks:         8,
		BusCycles:     16,
		RowHitCycles:  90,
		RowMissCycles: 210,
		RowBytes:      4096,
		LineBytes:     64,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := testCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testCfg()
	bad.RowMissCycles = 10 // faster than row hit
	if err := bad.Validate(); err == nil {
		t.Fatal("row miss < row hit accepted")
	}
}

func TestBankInterleaving(t *testing.T) {
	c := testCfg()
	// Consecutive lines rotate across banks.
	for i := 0; i < 32; i++ {
		addr := uint64(i * 64)
		if got, want := c.Bank(addr), i%8; got != want {
			t.Fatalf("Bank(line %d) = %d, want %d", i, got, want)
		}
	}
	// A thread streaming lines revisits the same row linesPerRow times per
	// bank before the row advances.
	linesPerRow := int(c.RowBytes / c.LineBytes) // 64
	r0 := c.Row(0)
	lastSameRow := uint64((linesPerRow*8 - 1) * 64)
	if c.Row(lastSameRow) != r0 {
		t.Fatalf("row changed within the first stripe")
	}
	if c.Row(lastSameRow+64) == r0 {
		t.Fatalf("row did not advance after the stripe")
	}
}

func TestUncontendedRowHitLatency(t *testing.T) {
	m := NewController(testCfg(), 2)
	// First access opens the row (row miss).
	r1 := m.Access(0, 0, 0)
	if r1.RowHit {
		t.Fatal("cold access cannot row-hit")
	}
	if r1.Latency != 210+16 {
		t.Fatalf("cold latency = %d, want %d", r1.Latency, 210+16)
	}
	// Next access in the same row (same bank: stride 8 lines), after the
	// bus cleared.
	r2 := m.Access(1000, 0, 8*64)
	if !r2.RowHit {
		t.Fatal("same-row access must row-hit")
	}
	if r2.Latency != 90+16 {
		t.Fatalf("row-hit latency = %d, want %d", r2.Latency, 90+16)
	}
}

func TestBankConflictAttribution(t *testing.T) {
	m := NewController(testCfg(), 2)
	m.Access(0, 0, 0) // core 0 occupies bank 0 until t=210
	r := m.Access(10, 1, 8*64*1024)
	if r.BankWait == 0 {
		t.Fatal("expected bank queueing")
	}
	if r.BankWaitOther != r.BankWait {
		t.Fatalf("bank wait %d should be attributed to the other core (%d)",
			r.BankWait, r.BankWaitOther)
	}
	// Same-core queueing is not interference.
	m2 := NewController(testCfg(), 2)
	m2.Access(0, 0, 0)
	r2 := m2.Access(10, 0, 8*64*1024)
	if r2.BankWaitOther != 0 {
		t.Fatal("self-inflicted bank wait misattributed as interference")
	}
}

func TestRowConflictTruthAndORA(t *testing.T) {
	m := NewController(testCfg(), 2)
	// Core 0 opens row A in bank 0; core 1 opens row B in bank 0;
	// core 0 returns to row A: a row conflict another core caused.
	rowStride := uint64(4096 * 8) // next row, same bank 0
	m.Access(0, 0, 0)
	m.Access(500, 1, rowStride)
	r := m.Access(1500, 0, 8*64) // row A again (line 8: bank 0, row 0)
	if r.RowHit {
		t.Fatal("expected row conflict")
	}
	if !r.RowConflictOther {
		t.Fatal("ORA missed the inter-core row conflict")
	}
	if r.RowPenalty != 120 {
		t.Fatalf("row penalty = %d, want 120", r.RowPenalty)
	}
}

func TestSelfRowConflictNotFlagged(t *testing.T) {
	m := NewController(testCfg(), 1)
	rowStride := uint64(4096 * 8)
	m.Access(0, 0, 0)
	m.Access(500, 0, rowStride) // core closes its own row
	r := m.Access(1500, 0, 8*64)
	if r.RowConflictOther {
		t.Fatal("self-closed row flagged as interference")
	}
}

func TestBusSerialization(t *testing.T) {
	m := NewController(testCfg(), 2)
	// Two simultaneous accesses to different banks collide on the bus.
	m.Access(0, 0, 0)       // bank 0
	r := m.Access(0, 1, 64) // bank 1, same start time
	if r.BusWait == 0 {
		t.Fatal("expected bus queueing for the second transfer")
	}
	if r.BusWaitOther != r.BusWait {
		t.Fatal("bus wait should be attributed to the other core")
	}
}

func TestWritebackOccupiesBus(t *testing.T) {
	m := NewController(testCfg(), 2)
	// The writeback grabs the bus at t=200..216; the access's data phase
	// begins at t=210 (after its row activation) and must queue behind it.
	m.Writeback(200, 0, 0)
	r := m.Access(0, 1, 64)
	if r.BusWait == 0 {
		t.Fatal("writeback should delay the following transfer")
	}
	if m.Stats().Writebacks != 1 {
		t.Fatal("writeback not counted")
	}
}

func TestInterferenceHelpers(t *testing.T) {
	r := AccessResult{
		BankWaitOther: 30, BusWaitOther: 10,
		RowPenalty:       120,
		RowConflictOther: true,
	}
	if got := r.Interference(); got != 160 {
		t.Fatalf("conflict: interference = %d, want 160", got)
	}
	r.RowConflictOther = false
	if got := r.Interference(); got != 40 {
		t.Fatalf("no conflict: interference = %d, want 40", got)
	}
}

// TestORAReplacement checks that a core's ORA holds one row per bank: a
// newer row in a bank replaces the older one, and other banks keep theirs.
func TestORAReplacement(t *testing.T) {
	m := NewController(testCfg(), 2)
	addr := func(bank, row uint64) uint64 { return row*4096*8 + bank*64 }
	m.Access(0, 0, addr(0, 1))
	m.Access(1000, 0, addr(1, 1))
	m.Access(2000, 0, addr(0, 2)) // replaces row 1 in bank 0
	m.Access(3000, 1, addr(0, 3))
	if r := m.Access(4000, 0, addr(0, 1)); r.RowHit || r.RowConflictOther {
		t.Fatalf("replaced row: hit %v, conflict %v; want a plain row miss", r.RowHit, r.RowConflictOther)
	}
	m.Access(5000, 1, addr(1, 3))
	if r := m.Access(6000, 0, addr(1, 1)); !r.RowConflictOther {
		t.Fatal("bank 1's row was lost to bank 0's replacement")
	}
}

func TestAccessLatencyLowerBound(t *testing.T) {
	// Property: latency >= row latency + bus cycles, and waits are
	// consistent with the total.
	f := func(seed uint64) bool {
		m := NewController(testCfg(), 4)
		rng := seed
		now := uint64(0)
		for i := 0; i < 200; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			addr := (rng >> 10) % (1 << 24) &^ 63
			core := int(rng % 4)
			now += rng % 300
			r := m.Access(now, core, addr)
			min := testCfg().RowHitCycles + testCfg().BusCycles
			if r.Latency < min {
				return false
			}
			if r.BankWaitOther > r.BankWait || r.BusWaitOther > r.BusWait {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRowHitStatsAccumulate(t *testing.T) {
	m := NewController(testCfg(), 1)
	for i := 0; i < 64; i++ {
		m.Access(uint64(i*300), 0, uint64(i*64*8)) // same bank 0, same row until stripe ends
	}
	st := m.Stats()
	if st.Accesses != 64 {
		t.Fatalf("accesses = %d", st.Accesses)
	}
	if st.RowHits == 0 {
		t.Fatal("sequential same-bank stream should produce row hits")
	}
}

// TestControllerDecompositionMatchesConfig holds the controller's shift/mask
// address decomposition to its references, Config.Bank and Config.Row, on
// the default geometry and on the smallest one Validate admits short of a
// single bank. Validate rejects every geometry the shifts could not serve,
// which is why the controller carries no division fallback.
func TestControllerDecompositionMatchesConfig(t *testing.T) {
	corner := testCfg()
	corner.Banks, corner.RowBytes = 2, corner.LineBytes // one line per row
	for _, cfg := range []Config{testCfg(), corner} {
		c := NewController(cfg, 1)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 10_000; i++ {
			addr := rng.Uint64()
			if b, r := c.bankRow(addr); b != cfg.Bank(addr) || r != cfg.Row(addr) {
				t.Fatalf("%+v: bankRow(%#x) = (%d, %d), Config says (%d, %d)",
					cfg, addr, b, r, cfg.Bank(addr), cfg.Row(addr))
			}
		}
	}
	for _, tc := range []struct {
		field  string
		mutate func(*Config)
	}{
		{"Banks", func(c *Config) { c.Banks = 3 }},
		{"LineBytes", func(c *Config) { c.LineBytes = 48 }},
		{"RowBytes", func(c *Config) { c.RowBytes = 3 * c.LineBytes }},
	} {
		bad := testCfg()
		tc.mutate(&bad)
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("non-power-of-two %s: %v", tc.field, err)
		}
	}
}

// refORA is the Open Row Array as a fully-associative MRU-to-LRU list of
// (bank, row) entries — the representation the per-bank ORA replaced, kept
// as TestORAMatchesReference's reference.
type refORA struct {
	entries []refORAEntry
}

type refORAEntry struct {
	bank  int
	row   uint64
	valid bool
}

// record notes that row was opened in bank: the bank's entry (or the first
// free one, or the LRU one) moves to MRU holding row.
func (o *refORA) record(bank int, row uint64) {
	idx := len(o.entries) - 1
	for i, e := range o.entries {
		if !e.valid || e.bank == bank {
			idx = i
			break
		}
	}
	copy(o.entries[1:idx+1], o.entries[:idx])
	o.entries[0] = refORAEntry{bank: bank, row: row, valid: true}
}

func (o *refORA) contains(bank int, row uint64) bool {
	for _, e := range o.entries {
		if e.valid && e.bank == bank {
			return e.row == row
		}
	}
	return false
}

// truthRef is the ground-truth row-conflict rule the controller once kept
// beside the ORA, kept as TestORAMatchesReference's second reference: a row
// miss is interference iff this core's last access to the bank was to the
// requested row and another core accessed the bank after it.
type truthRef struct {
	last  [][]int64 // per core, per bank: last row accessed, -1 for none
	owner []int     // per bank: last accessing core, -1 for none
}

func newTruthRef(cores, banks int) *truthRef {
	r := &truthRef{last: make([][]int64, cores), owner: make([]int, banks)}
	for c := range r.last {
		r.last[c] = make([]int64, banks)
		for b := range r.last[c] {
			r.last[c][b] = -1
		}
	}
	for b := range r.owner {
		r.owner[b] = -1
	}
	return r
}

// access returns the verdict for a row miss by core on (bank, row), then
// records the access.
func (r *truthRef) access(core, bank int, row uint64) bool {
	conflict := r.last[core][bank] == int64(row) && r.owner[bank] >= 0 && r.owner[bank] != core
	r.last[core][bank], r.owner[bank] = int64(row), core
	return conflict
}

// TestORAMatchesReference replays seeded four-core streams through 8-bank
// and 2-bank controllers and holds the row-conflict verdict of every access
// to two references: refORA, the paper's MRU entry list at capacity = banks,
// and truthRef, the ground-truth rule. Every access goes through AccessTo,
// the simulator's entry point: its row-hit verdict must match the bank's open
// row, and on a row miss both references must give the controller's verdict.
// A last loop holds the by-value Access, which only the benchmark calls, to
// the result AccessTo fills.
func TestORAMatchesReference(t *testing.T) {
	const cores = 4
	conflicts := 0
	for _, banks := range []int{8, 2} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := testCfg()
			cfg.Banks = banks
			c := NewController(cfg, cores)
			refs := make([]refORA, cores)
			for i := range refs {
				refs[i].entries = make([]refORAEntry, banks)
			}
			truth := newTruthRef(cores, banks)
			open := make([]int64, banks) // open row per bank, -1 for none
			for b := range open {
				open[b] = -1
			}
			rowLines := cfg.RowBytes / cfg.LineBytes
			rng := rand.New(rand.NewSource(int64(banks)*100 + seed))
			var res AccessResult // reused: AccessTo must overwrite every field
			for i := 0; i < 10_000; i++ {
				core, bank, row := rng.Intn(cores), rng.Intn(banks), uint64(rng.Intn(4))
				line := (int64(row)*rowLines+rng.Int63n(rowLines))*int64(banks) + int64(bank)
				rowHit := open[bank] == int64(row)
				wantORA := !rowHit && refs[core].contains(bank, row)
				wantTruth := truth.access(core, bank, row) && !rowHit
				c.AccessTo(&res, uint64(i)*1000, core, uint64(line*cfg.LineBytes))
				if res.RowHit != rowHit || res.RowConflictOther != wantORA || res.RowConflictOther != wantTruth {
					t.Fatalf("%d banks, seed %d, step %d: core %d bank %d row %d: row hit %v, conflict %v; reference %v, refORA %v, truthRef %v",
						banks, seed, i, core, bank, row, res.RowHit, res.RowConflictOther, rowHit, wantORA, wantTruth)
				}
				if wantORA {
					conflicts++
				}
				refs[core].record(bank, row)
				open[bank] = int64(row)
			}
		}
	}
	if conflicts == 0 {
		t.Fatal("the streams produced no inter-core row conflict")
	}

	byValue, inPlace := NewController(testCfg(), cores), NewController(testCfg(), cores)
	rng := rand.New(rand.NewSource(7))
	var want AccessResult
	for i := 0; i < 10_000; i++ {
		// Arrivals 50 cycles apart keep the bus and banks queued, so every
		// wait and attribution field takes non-zero values.
		now, core, addr := uint64(i)*50, rng.Intn(cores), uint64(rng.Intn(1<<16))*64
		inPlace.AccessTo(&want, now, core, addr)
		if got := byValue.Access(now, core, addr); got != want {
			t.Fatalf("access %d: Access returned %+v, AccessTo filled %+v", i, got, want)
		}
	}
}
