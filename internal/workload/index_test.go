package workload

import (
	"fmt"
	"reflect"
	"testing"
)

// byNameLinear is ByName as it was before the name index: a scan of the
// Figure 6 analogues and then the contention patterns, first match on full
// or plain name. It stays as the reference the index is held to.
func byNameLinear(name string) (Benchmark, bool) {
	for _, list := range [][]Benchmark{registry, patterns} {
		for _, b := range list {
			if fmt.Sprintf("%s_%s", b.Spec.Name, b.Spec.Suite) == name || b.Spec.Name == name {
				return b, true
			}
		}
	}
	return Benchmark{}, false
}

// TestIndexMatchesLinearScan holds the index to the scan it replaced, for
// every full name, every plain name and a handful of misses — including the
// plain names more than one entry claims, where the first entry must win.
func TestIndexMatchesLinearScan(t *testing.T) {
	var names []string
	for _, b := range append(All(), Patterns()...) {
		names = append(names, b.FullName(), b.Spec.Name)
	}
	if len(names) != 2*38 {
		t.Fatalf("%d names, want full and plain for 38 entries", len(names))
	}
	names = append(names, "", "nonexistent", "Cholesky", "cholesky_", "_splash2", "cholesky_splash2 ", "contention")
	for _, name := range names {
		got, ok := ByName(name)
		want, wantOK := byNameLinear(name)
		if ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Errorf("ByName(%q) = %s, %v; the linear scan finds %s, %v", name, got.FullName(), ok, want.FullName(), wantOK)
		}
		wantFull, wantFP := "", Fingerprint{}
		if wantOK {
			wantFull, wantFP = want.FullName(), want.Spec.Fingerprint()
		}
		if full, fp, ok := Identity(name); ok != wantOK || full != wantFull || fp != wantFP {
			t.Errorf("Identity(%q) = %q, %s, %v; want %q, %s, %v",
				name, full, fp.Short(), ok, wantFull, wantFP.Short(), wantOK)
		}
	}
	if b, _ := ByName("blackscholes"); b.Spec.Suite != "parsec_medium" {
		t.Errorf("plain name resolved to suite %q, want the first entry's (parsec_medium)", b.Spec.Suite)
	}
}

// TestIndexFingerprintsPrecomputed: the fingerprint the index holds is the
// spec's own, for all 38 entries, and Names is every full name once.
func TestIndexFingerprintsPrecomputed(t *testing.T) {
	if len(index.entries) != 38 {
		t.Fatalf("index holds %d entries, want 28 analogues + 10 patterns", len(index.entries))
	}
	listed := map[string]bool{}
	for _, n := range Names() {
		listed[n] = true
	}
	for _, e := range index.entries {
		if e.fp != e.bench.Spec.Fingerprint() {
			t.Errorf("%s: precomputed fingerprint differs from Spec.Fingerprint()", e.fullName)
		}
		if e.fullName != e.bench.FullName() || !listed[e.fullName] {
			t.Errorf("%s: full name not the benchmark's (%s) or missing from Names", e.fullName, e.bench.FullName())
		}
	}
	if len(listed) != 38 {
		t.Errorf("Names lists %d distinct names, want 38", len(listed))
	}
}

// TestLookupsDoNotAllocate: resolving a name — hit, alias or miss — is a map
// read, nothing else.
func TestLookupsDoNotAllocate(t *testing.T) {
	var sink Benchmark
	for _, name := range []string{"cholesky_splash2", "cholesky", "llc_thrash", "nonexistent"} {
		if n := testing.AllocsPerRun(100, func() { sink, _ = ByName(name) }); n != 0 {
			t.Errorf("ByName(%q) allocates %v times", name, n)
		}
		if n := testing.AllocsPerRun(100, func() { Identity(name) }); n != 0 {
			t.Errorf("Identity(%q) allocates %v times", name, n)
		}
	}
	_ = sink
}

// TestEditedCopyIsNotTheRegisteredWorkload: the precomputed fingerprint is
// reachable only by name. A copy handed out by ByName that is then edited
// carries nothing of it — it hashes as what it has become — and neither the
// index nor a later lookup sees the edit.
func TestEditedCopyIsNotTheRegisteredWorkload(t *testing.T) {
	const name = "cholesky_splash2"
	b, _ := ByName(name)
	_, registered, _ := Identity(name)
	b.Spec.Seed++
	if b.Spec.Fingerprint() == registered {
		t.Fatal("an edited copy still hashes to the registered fingerprint")
	}
	if again, _ := ByName(name); again.Spec.Seed == b.Spec.Seed {
		t.Fatal("editing a copy changed the registry")
	}
	if _, fp, _ := Identity(name); fp != registered {
		t.Fatal("editing a copy changed the indexed fingerprint")
	}
}

// TestSuggestCoversEveryResolvableName: a typo of any name ByName resolves
// gets a suggestion, contention patterns included (they used to get none).
func TestSuggestCoversEveryResolvableName(t *testing.T) {
	for in, want := range map[string]string{
		"false_sharin":          "false_sharing",
		"llc_thrsh":             "llc_thrash",
		"hot_refcount_contentn": "hot_refcount_contention",
	} {
		if got := Suggest(in); got != want {
			t.Errorf("Suggest(%q) = %q, want %q", in, got, want)
		}
	}
	for _, e := range index.entries {
		for _, name := range []string{e.fullName, e.bench.Spec.Name} {
			if got := Suggest(name[:len(name)-1]); got == "" {
				t.Errorf("Suggest(%q): no suggestion for a one-letter typo of %q", name[:len(name)-1], name)
			}
		}
	}
}
