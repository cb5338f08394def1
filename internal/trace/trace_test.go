package trace

import (
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiverge(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical draws from different seeds", same)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced degenerate stream")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

func TestRNGUint64nRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		if v := r.Uint64n(97); v >= 97 {
			t.Fatalf("Uint64n(97) = %d out of range", v)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / float64(n)
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("mean = %v, want ~0.5", mean)
	}
}

func TestRNGBoolEdges(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestRNGBoolProbability(t *testing.T) {
	r := NewRNG(5)
	hits := 0
	n := 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if frac < 0.28 || frac > 0.32 {
		t.Fatalf("Bool(0.3) frequency = %v", frac)
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindCompute: "compute", KindLoad: "load", KindStore: "store",
		KindLock: "lock", KindUnlock: "unlock", KindBarrier: "barrier",
		KindPush: "push", KindPop: "pop", KindCloseQueue: "closeq",
		KindEnd: "end",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind produced empty string")
	}
}

func TestOpConstructors(t *testing.T) {
	if op := Compute(7); op.Kind != KindCompute || op.N != 7 {
		t.Errorf("Compute: %+v", op)
	}
	if op := Load(0x100, 0x4); op.Kind != KindLoad || op.Addr != 0x100 || op.PC != 0x4 || op.N != 1 {
		t.Errorf("Load: %+v", op)
	}
	if op := Store(0x200, 0x8); op.Kind != KindStore || op.Addr != 0x200 {
		t.Errorf("Store: %+v", op)
	}
	if op := Lock(3); op.Kind != KindLock || op.ID != 3 {
		t.Errorf("Lock: %+v", op)
	}
	if op := Unlock(3); op.Kind != KindUnlock {
		t.Errorf("Unlock: %+v", op)
	}
	if op := Barrier(5); op.Kind != KindBarrier || op.ID != 5 {
		t.Errorf("Barrier: %+v", op)
	}
	if op := Push(2); op.Kind != KindPush {
		t.Errorf("Push: %+v", op)
	}
	if op := Pop(2); op.Kind != KindPop {
		t.Errorf("Pop: %+v", op)
	}
	if op := CloseQueue(2); op.Kind != KindCloseQueue {
		t.Errorf("CloseQueue: %+v", op)
	}
	if op := End(); op.Kind != KindEnd {
		t.Errorf("End: %+v", op)
	}
}

func TestSliceProgramAppendsEnd(t *testing.T) {
	p := NewSliceProgram([]Op{Compute(1), Compute(2)})
	var kinds []Kind
	for i := 0; i < 4; i++ {
		kinds = append(kinds, p.Next(Feedback{}).Kind)
	}
	if kinds[0] != KindCompute || kinds[1] != KindCompute {
		t.Fatalf("unexpected prefix %v", kinds)
	}
	if kinds[2] != KindEnd || kinds[3] != KindEnd {
		t.Fatalf("program must end (and stay ended): %v", kinds)
	}
}

func TestSliceProgramEmpty(t *testing.T) {
	p := NewSliceProgram(nil)
	if op := p.Next(Feedback{}); op.Kind != KindEnd {
		t.Fatalf("empty program first op = %v, want End", op.Kind)
	}
}

func TestRNGUint64nPropertyInRange(t *testing.T) {
	f := func(seed uint64, n uint64) bool {
		if n == 0 {
			n = 1
		}
		r := NewRNG(seed)
		for i := 0; i < 10; i++ {
			if r.Uint64n(n) >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
