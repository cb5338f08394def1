package workload

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestParseSpecRoundTrip(t *testing.T) {
	src := []byte(`{
		"name": "mykernel", "suite": "custom", "kind": "data_parallel",
		"array_bytes": 4194304, "sweeps_per_phase": 2, "phases": 2,
		"instr_per_access": 1200, "store_frac": 0.2,
		"shared_bytes": 524288, "shared_frac": 0.1, "shared_store_frac": 0.05,
		"random_shared": true, "effective_parallelism": 9,
		"cs_per_thread_per_phase": 40, "cs_instr": 600, "num_locks": 8,
		"overhead_frac": 0.04, "seed": 7
	}`)
	s, err := ParseSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "mykernel" || s.Kind != KindDataParallel || s.ArrayBytes != 4<<20 {
		t.Fatalf("parsed spec wrong: %+v", s)
	}
	out, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ParseSpec(out)
	if err != nil {
		t.Fatalf("re-parse of marshalled canonical spec: %v", err)
	}
	if !reflect.DeepEqual(s, s2) {
		t.Fatalf("round trip changed the spec:\n%+v\n%+v", s, s2)
	}
	if s.Fingerprint() != s2.Fingerprint() {
		t.Fatal("round trip changed the fingerprint")
	}
}

func TestParseSpecRegistryRoundTrip(t *testing.T) {
	// Every registry analogue must survive marshal -> parse -> canonical
	// with its fingerprint intact: the registry is valid spec JSON.
	for _, b := range All() {
		data, err := json.Marshal(b.Spec)
		if err != nil {
			t.Fatalf("%s: %v", b.FullName(), err)
		}
		s, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: %v", b.FullName(), err)
		}
		if s.Fingerprint() != b.Spec.Fingerprint() {
			t.Errorf("%s: fingerprint changed across JSON round trip", b.FullName())
		}
	}
}

func TestParseSpecRejects(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the error
	}{
		{"empty object", `{}`, "missing kind"},
		{"kind omitted", `{"name":"t","items":3,"item_instr":9}`, "missing kind"},
		{"kind null", `{"name":"t","kind":null,"items":3,"item_instr":9}`, "missing kind"},
		{"missing name", `{"kind":"data_parallel","array_bytes":64,"sweeps_per_phase":1,"phases":1}`, "name is required"},
		{"unknown field", `{"name":"x","kind":"data_parallel","array_byts":64}`, "array_byts"},
		{"bad kind", `{"name":"x","kind":"gpu_offload"}`, "unknown kind"},
		{"numeric kind", `{"name":"x","kind":1}`, "kind"},
		{"trailing data", `{"name":"x","kind":"task_queue","items":1,"item_instr":1} {}`, "trailing data"},
		{"not json", `hello`, "invalid character"},
		{"shared without bytes", `{"name":"x","kind":"data_parallel","array_bytes":64,
			"sweeps_per_phase":1,"phases":1,"shared_frac":0.5}`, "shared_bytes"},
		{"fraction out of range", `{"name":"x","kind":"data_parallel","array_bytes":64,
			"sweeps_per_phase":1,"phases":1,"store_frac":1.5}`, "store_frac"},
		{"negative count", `{"name":"x","kind":"task_queue","items":10,"item_instr":5,
			"item_accesses":-1}`, "item_accesses"},
		{"zero stage weight", `{"name":"x","kind":"pipeline","items":10,"array_bytes":64,
			"stages":[{"weight":0.5},{"weight":0}]}`, "weight"},
		{"tiny effective parallelism", `{"name":"x","kind":"data_parallel","array_bytes":64,
			"sweeps_per_phase":1,"phases":1,"effective_parallelism":0.01}`, "effective_parallelism"},
	}
	for _, c := range cases {
		_, err := ParseSpec([]byte(c.json))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestFingerprintIgnoresNaming(t *testing.T) {
	b, _ := ByName("cholesky_splash2")
	renamed := b.Spec
	renamed.Name, renamed.Suite = "totally-different", "elsewhere"
	if renamed.Fingerprint() != b.Spec.Fingerprint() {
		t.Error("renaming changed the fingerprint")
	}
	reseeded := b.Spec
	reseeded.Seed++
	if reseeded.Fingerprint() == b.Spec.Fingerprint() {
		t.Error("different seed, same fingerprint")
	}
}

func TestFingerprintIgnoresInertFields(t *testing.T) {
	b, _ := ByName("blackscholes_parsec_small") // data-parallel
	tweaked := b.Spec
	tweaked.Items, tweaked.ItemInstr, tweaked.QueueCap = 999, 123, 4 // task/pipeline knobs
	if tweaked.Fingerprint() != b.Spec.Fingerprint() {
		t.Error("fields the data-parallel generator never reads changed the fingerprint")
	}
	tweaked.InstrPerAccess++ // a live knob must matter
	if tweaked.Fingerprint() == b.Spec.Fingerprint() {
		t.Error("live field change kept the fingerprint")
	}
}

// sameStream reports whether a and b emit the same ops, compared batch by
// batch up to limit ops. The streams come from the same generator code, so
// equal streams cut their batches at the same places; pops are answered
// with PopOK, as an open queue would.
func sameStream(a, b trace.Program, limit int) bool {
	fb := trace.Feedback{PopOK: true}
	bufA, bufB := make([]trace.Op, 512), make([]trace.Op, 512)
	for ops := 0; ops < limit; {
		n := a.NextBatch(bufA, fb)
		if b.NextBatch(bufB, fb) != n {
			return false
		}
		for i := 0; i < n; i++ {
			if bufA[i] != bufB[i] {
				return false
			}
		}
		if bufA[n-1].Kind == trace.KindEnd {
			break
		}
		ops += n
	}
	return true
}

// TestCanonicalPreservesPrograms is the contract Fingerprint rests on:
// canonicalization must not change generated op streams, for any registry
// analogue, sequentially or at any thread count. (The sweep engine may
// memoize a canonical inline spec and a raw registry spec under one key, so
// any divergence here would make cached results depend on arrival order.)
func TestCanonicalPreservesPrograms(t *testing.T) {
	const limit = 300_000
	for _, b := range All() {
		c := b.Spec.Canonical()
		if err := c.Validate(); err != nil {
			t.Errorf("%s: canonical form invalid: %v", b.FullName(), err)
			continue
		}
		if c.Fingerprint() != b.Spec.Fingerprint() {
			t.Errorf("%s: canonicalization not idempotent under Fingerprint", b.FullName())
		}
		seqA, err := b.Spec.Sequential()
		if err != nil {
			t.Fatalf("%s: %v", b.FullName(), err)
		}
		seqB, _ := c.Sequential()
		if !sameStream(seqA, seqB, limit) {
			t.Errorf("%s: sequential op stream changed under canonicalization", b.FullName())
		}
		for _, threads := range []int{1, 3, 16} {
			progsA, err := b.Spec.Parallel(threads)
			if err != nil {
				t.Fatalf("%s: %v", b.FullName(), err)
			}
			progsB, _ := c.Parallel(threads)
			for tid := range progsA {
				if !sameStream(progsA[tid], progsB[tid], limit) {
					t.Errorf("%s x%d thread %d: op stream changed under canonicalization",
						b.FullName(), threads, tid)
					break
				}
			}
		}
	}
}

func TestKindJSONVocabulary(t *testing.T) {
	for k, want := range map[Kind]string{
		KindDataParallel: `"data_parallel"`,
		KindTaskQueue:    `"task_queue"`,
		KindPipeline:     `"pipeline"`,
	} {
		got, err := json.Marshal(k)
		if err != nil || string(got) != want {
			t.Errorf("kind %d marshalled to %s (%v), want %s", k, got, err, want)
		}
	}
	if _, err := json.Marshal(Kind(99)); err == nil {
		t.Error("unknown kind marshalled")
	}
}

// TestKindString pins that a kind prints as its JSON name, and that an
// unknown kind prints its number rather than failing.
func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindDataParallel: "data_parallel",
		KindTaskQueue:    "task_queue",
		KindPipeline:     "pipeline",
		KindTrace:        "trace",
		Kind(99):         "kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", uint8(k), got, want)
		}
	}
}

func TestSuggest(t *testing.T) {
	cases := map[string]string{
		"choleski":        "cholesky",
		"cholesky_splash": "cholesky_splash2",
		"blackscholes":    "blackscholes", // exact plain name
		"qwertyuiop":      "",             // nothing close
	}
	for in, want := range cases {
		if got := Suggest(in); got != want {
			t.Errorf("Suggest(%q) = %q, want %q", in, got, want)
		}
	}
	// Nearest, the loop behind it: case-insensitive, earlier candidate wins
	// a tie, nothing beyond max(2, len/3) edits.
	if got := Nearest("Lock_Hald", []string{"lock_hole", "lock_hold", "lock_held"}); got != "lock_hold" {
		t.Errorf("Nearest = %q, want lock_hold", got)
	}
	if got := Nearest("abcd", []string{"abxy", "abzw"}); got != "abxy" {
		t.Errorf("Nearest tie = %q, want the earlier candidate abxy", got)
	}
	if got := Nearest("abcd", []string{"awxyz"}); got != "" {
		t.Errorf("Nearest beyond the cutoff = %q, want none", got)
	}
}

func TestUnknownBenchmarkError(t *testing.T) {
	err := UnknownBenchmarkError("choleski")
	if !errors.Is(err, ErrUnknownBenchmark) {
		t.Fatal("error does not wrap ErrUnknownBenchmark")
	}
	if msg := err.Error(); !strings.Contains(msg, `did you mean "cholesky"?`) {
		t.Errorf("no suggestion in %q", msg)
	}
	if msg := UnknownBenchmarkError("qwertyuiop").Error(); strings.Contains(msg, "did you mean") {
		t.Errorf("implausible suggestion in %q", msg)
	}
}

func TestFullNameWithoutSuite(t *testing.T) {
	b := Benchmark{Spec: Spec{Name: "solo"}}
	if got := b.FullName(); got != "solo" {
		t.Errorf("FullName = %q, want solo", got)
	}
}
