package workload

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// replay runs a spec through Simulate, the step the sweep engine's cells go
// through; threads == 0 is the sequential reference.
func replay(t *testing.T, cfg sim.Config, s Spec, threads int) sim.Result {
	t.Helper()
	res, err := Simulate(cfg, s, threads, threads, nil)
	if err != nil {
		t.Fatalf("Simulate x%d: %v", threads, err)
	}
	return res
}

// TestTraceRoundTrip is the record/replay contract over the whole registry:
// recording any analogue at 1, 4 and 16 threads and replaying the encoded
// trace reproduces the live generator's sim.Result exactly — same cycles,
// same accounting, byte-identical structs — and the trace's cheap header
// identity agrees with the decoded spec's fingerprint.
func TestTraceRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-registry record/replay sweep is not a -short test")
	}
	cfg := sim.Default()
	for _, b := range All() {
		b := b
		t.Run(b.FullName(), func(t *testing.T) {
			t.Parallel()
			for _, threads := range []int{1, 4, 16} {
				f, live, err := Record(cfg, b.Spec, threads)
				if err != nil {
					t.Fatalf("Record x%d: %v", threads, err)
				}
				var buf bytes.Buffer
				if err := f.Encode(&buf); err != nil {
					t.Fatalf("Encode x%d: %v", threads, err)
				}
				d, err := trace.Decode(buf.Bytes())
				if err != nil {
					t.Fatalf("Decode x%d: %v", threads, err)
				}
				spec := TraceSpec(d)
				if spec.TraceThreads() != threads {
					t.Fatalf("TraceThreads = %d, recorded %d", spec.TraceThreads(), threads)
				}
				if spec.Name != b.FullName() {
					t.Fatalf("trace label %q, want %q", spec.Name, b.FullName())
				}
				m, err := trace.DecodeMeta(buf.Bytes())
				if err != nil {
					t.Fatalf("DecodeMeta x%d: %v", threads, err)
				}
				if got, want := TraceIdentity(m), spec.Fingerprint(); got != want {
					t.Fatalf("TraceIdentity %s != spec fingerprint %s", got.Short(), want.Short())
				}
				if got := replay(t, cfg, spec, threads); !reflect.DeepEqual(got, live) {
					t.Fatalf("x%d: replayed result differs from live run\nlive   %+v\nreplay %+v", threads, live, got)
				}
				if threads == 1 {
					liveSeq := replay(t, cfg, b.Spec.Canonical(), 0)
					if got := replay(t, cfg, spec, 0); !reflect.DeepEqual(got, liveSeq) {
						t.Fatalf("replayed sequential reference differs from live run")
					}
				}
			}
		})
	}
}

// roundTrip encodes f and decodes it back: the replayable form a reader of
// the written file sees.
func roundTrip(f *trace.File) (*trace.Data, error) {
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		return nil, err
	}
	return trace.Decode(buf.Bytes())
}

func TestTraceSpecOnlyReplaysRecordedThreadCount(t *testing.T) {
	b, _ := ByName("fft_splash2")
	f, _, err := Record(sim.Default(), b.Spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := roundTrip(f)
	if err != nil {
		t.Fatal(err)
	}
	spec := TraceSpec(d)
	if _, err := spec.Parallel(8); err == nil || !strings.Contains(err.Error(), "recorded at 4 threads") {
		t.Fatalf("replay at the wrong thread count did not fail usefully: %v", err)
	}
	if _, err := spec.Parallel(4); err != nil {
		t.Fatalf("replay at the recorded count failed: %v", err)
	}
}

func TestJSONTraceSpecFailsActionably(t *testing.T) {
	_, err := ParseSpec([]byte(`{"name": "x", "kind": "trace", "trace_hash": "deadbeef"}`))
	if err == nil || !strings.Contains(err.Error(), "cannot carry trace data") {
		t.Fatalf("JSON spec of kind trace did not fail actionably: %v", err)
	}
}

func TestRecordRejectsTraceSpec(t *testing.T) {
	b, _ := ByName("fft_splash2")
	f, _, err := Record(sim.Default(), b.Spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := roundTrip(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Record(sim.Default(), TraceSpec(d), 1); err == nil {
		t.Fatal("re-recording a trace replay was accepted")
	}
}

// TestRecordRefusesBadHeader pins that Record judges its file's header with
// trace.Header.Check before it simulates: a spec whose full name is
// longer than a trace label may be fails with the label error, not with a
// recorded file that Encode then refuses.
func TestRecordRefusesBadHeader(t *testing.T) {
	b, _ := ByName("fft_splash2")
	s := b.Spec
	s.Name = strings.Repeat("n", trace.MaxLabelLen)
	want := trace.Header{Label: Benchmark{Spec: s}.FullName()}.Check(1)
	if want == nil {
		t.Fatal("the header check accepts the oversized label")
	}
	f, _, err := Record(sim.Default(), s, 1)
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("Record: file %v, error %v; want the header error %q", f != nil, err, want)
	}
}

// TestTraceIdentityTracksGraces pins that the sync-library overrides are
// part of a trace's identity: the same op streams under different spin
// graces are different simulations and must not share a memo entry.
func TestTraceIdentityTracksGraces(t *testing.T) {
	f := &trace.File{Threads: [][]trace.Op{{trace.Compute(5), trace.End()}}}
	d1, err := roundTrip(f)
	if err != nil {
		t.Fatal(err)
	}
	f.LockGrace = 1 << 30
	d2, err := roundTrip(f)
	if err != nil {
		t.Fatal(err)
	}
	if TraceSpec(d1).Fingerprint() == TraceSpec(d2).Fingerprint() {
		t.Fatal("lock-grace change did not change the trace fingerprint")
	}
	if TraceSpec(d1).TraceThreads() != 1 {
		t.Fatalf("TraceThreads = %d", TraceSpec(d1).TraceThreads())
	}
	seq := Spec{Name: "x", Kind: KindTrace}
	seq.traceData = d1
	if err := seq.Validate(); err == nil {
		t.Fatal("mismatched trace_hash passed validation")
	}
}
