package service

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// pair is one query parameter as the client spelled it.
type pair [2]string

// rawQuery joins pairs in the order given — the point of these tests is the
// raw spelling, so nothing here sorts or re-encodes.
func rawQuery(ps []pair) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p[0] + "=" + p[1]
	}
	return strings.Join(parts, "&")
}

// permutations calls visit with every ordering of ps.
func permutations(ps []pair, visit func([]pair)) {
	var rec func(k int)
	rec = func(k int) {
		if k == len(ps) {
			visit(ps)
			return
		}
		for i := k; i < len(ps); i++ {
			ps[k], ps[i] = ps[i], ps[k]
			rec(k + 1)
			ps[k], ps[i] = ps[i], ps[k]
		}
	}
	rec(0)
}

// identifyRow runs Identify on one spelling of a request to rt.
func identifyRow(t *testing.T, rt route, query, accept string) Identity {
	t.Helper()
	r := httptest.NewRequest(rt.method, strings.TrimSuffix(rt.path+"?"+query, "?"), strings.NewReader(""))
	if accept != "" {
		r.Header.Set("Accept", accept)
	}
	id, routable := Identify(r)
	if !routable {
		t.Fatalf("%s %s is not routable", rt.method, rt.path)
	}
	return id
}

// TestIdentifyCanonicalOptions ranges over every workload-keyed row of the
// route table and holds Identity.Options to what the row's own parameter
// list makes of a request, not to how the client spelled it: any parameter
// order, the format by ?format=, by Accept or by default, an alias or the
// full name, a default spelled out or left out, a repeated parameter that
// loses to its first value — one identity. Anything the service would answer
// differently — another format, cell, mode, count — is another identity, and
// so is a query the row rejects, which keeps its sorted raw pairs.
func TestIdentifyCanonicalOptions(t *testing.T) {
	for _, rt := range routes {
		if rt.identity == identNone {
			continue
		}
		// base is the shortest spelling; full spells every default out.
		var base, full, loser []pair
		var different [][]pair // each replaces or extends base into another question
		var rejected [][]pair  // whole queries the row answers 400
		if rt.takes("bench") {
			base = append(base, pair{"bench", "cholesky_splash2"})
			full = append(full, pair{"bench", "cholesky"})
			different = append(different, []pair{{"bench", "fft_splash2"}})
		}
		if rt.takes("threads") {
			base = append(base, pair{"threads", "4"})
			full = append(full, pair{"threads", "4"}, pair{"cores", "4"})
			loser = append(loser, pair{"threads", "8"})
			different = append(different, []pair{{"threads", "8"}}, []pair{{"cores", "2"}})
			rejected = append(rejected, []pair{{"bench", "cholesky_splash2"}, {"threads", "four"}})
		}
		if rt.takes("intervals") {
			full = append(full, pair{"intervals", "32"})
			different = append(different, []pair{{"intervals", "4"}})
		}
		if rt.takes("max_threads") {
			full = append(full, pair{"max_threads", "16"})
			different = append(different, []pair{{"max_threads", "8"}})
		}
		if rt.protected {
			full = append(full, pair{"mode", "exact"}, pair{"format", "json"})
			different = append(different, []pair{{"mode", "fast"}}, []pair{{"format", "csv"}})
			rejected = append(rejected, append([]pair{{"mode", "sloppy"}}, base...))
		}

		want := identifyRow(t, rt, rawQuery(base), "")
		if strings.HasPrefix(want.Options, "?") {
			t.Fatalf("%s %s?%s: a valid query kept its raw form %q", rt.method, rt.path, rawQuery(base), want.Options)
		}
		same := func(query, accept string) {
			t.Helper()
			got := identifyRow(t, rt, query, accept)
			if got.Options != want.Options || strings.Join(got.Keys, ",") != strings.Join(want.Keys, ",") {
				t.Errorf("%s %s?%s (Accept %q): identity %q keys %v, want %q keys %v — the same question as ?%s",
					rt.method, rt.path, query, accept, got.Options, got.Keys, want.Options, want.Keys, rawQuery(base))
			}
		}
		permutations(base, func(ps []pair) { same(rawQuery(ps), "") })
		permutations(full, func(ps []pair) { same(rawQuery(ps), "") })
		same(rawQuery(append(append([]pair{}, base...), loser...)), "") // the first value wins
		if rt.protected {
			same(rawQuery(base), "application/json")
			same(rawQuery(base), "text/html, application/json;q=0.9, text/csv")
			same(rawQuery(full), "text/csv") // an explicit ?format= beats Accept
		}

		seen := map[string]string{want.Options: rawQuery(base)}
		differs := func(query, accept string) {
			t.Helper()
			got := identifyRow(t, rt, query, accept).Options
			if prev, dup := seen[got]; dup {
				t.Errorf("%s %s?%s (Accept %q) shares identity %q with ?%s", rt.method, rt.path, query, accept, got, prev)
			}
			seen[got] = query
		}
		for _, d := range different {
			// d's parameters come first, so they win over base's.
			differs(rawQuery(append(append([]pair{}, d...), base...)), "")
		}
		if rt.protected {
			differs(rawQuery(base), "image/svg+xml")
		}
		rejected = append(rejected, append([]pair{{"nosuch", "1"}}, base...))
		for _, bad := range rejected {
			raw := identifyRow(t, rt, rawQuery(bad), "").Options
			differs(rawQuery(bad), "")
			permutations(bad, func(ps []pair) {
				if got := identifyRow(t, rt, rawQuery(ps), "").Options; got != raw || !strings.HasPrefix(got, "?") {
					t.Errorf("%s %s?%s: rejected query identity %q, want the raw (\"?\"-prefixed) %q", rt.method, rt.path, rawQuery(ps), got, raw)
				}
			})
		}
	}
}

// TestIdentifyRepeatedValueOrder: of a repeated parameter the service reads
// the first value, so the two orders of ?threads=4&threads=8 are two
// questions with two answers and must never share an identity.
func TestIdentifyRepeatedValueOrder(t *testing.T) {
	for _, rt := range routes {
		if !rt.takes("threads") {
			continue
		}
		a := identifyRow(t, rt, "bench=cholesky&threads=4&threads=8", "")
		b := identifyRow(t, rt, "bench=cholesky&threads=8&threads=4", "")
		four := identifyRow(t, rt, "threads=4&bench=cholesky", "")
		if a.Options == b.Options || a.Options != four.Options {
			t.Errorf("%s: identities %q (4 then 8), %q (8 then 4), %q (4)", rt.path, a.Options, b.Options, four.Options)
		}
	}
}

// TestSplitCarriesCanonicalOptions: the sub-sweeps of a split sweep get one
// option identity, the request's Rows, however the batch itself was asked
// for, in any of the five formats.
func TestSplitCarriesCanonicalOptions(t *testing.T) {
	body := `{"cells":[{"bench":"cholesky","threads":2},{"bench":"fft_splash2","threads":2}]}`
	type identified struct{ Query, Options, sub string }
	split := func(query, accept string) identified {
		t.Helper()
		r := httptest.NewRequest("POST", strings.TrimSuffix("/v1/sweep?"+query, "?"), strings.NewReader(body))
		if accept != "" {
			r.Header.Set("Accept", accept)
		}
		id, _ := Identify(r)
		sp, ok := id.Split([]int{0, 1})
		if !ok || len(sp.Bodies) != 2 {
			t.Fatalf("?%s (Accept %q): split ok=%v into %d bodies", query, accept, ok, len(sp.Bodies))
		}
		// A sub-sweep's identity, as the service reads its query, is the
		// batch's Rows.
		sub, _ := Identify(httptest.NewRequest("POST", "/v1/sweep?"+sp.Query, strings.NewReader(string(sp.Bodies[0]))))
		return identified{sp.Query, id.Rows, sub.Rows}
	}
	want := split("", "")
	if want.Query != "mode=exact" || want.sub != want.Options {
		t.Errorf("sub-request query %q of identity %q, want mode=exact of the batch's %q", want.Query, want.sub, want.Options)
	}
	for _, c := range []struct{ query, accept string }{
		{"format=json", ""}, {"format=ndjson", ""}, {"", "application/x-ndjson"}, {"mode=exact", ""},
		{"mode=exact&format=json", "text/csv"}, {"format=svg", ""}, {"", "text/csv"}, {"format=text", ""},
	} {
		if got := split(c.query, c.accept); got != want {
			t.Errorf("?%s (Accept %q): sub-request %q identity %q, want %q %q", c.query, c.accept, got.Query, got.Options, want.Query, want.Options)
		}
	}
	if fast := split("mode=fast", ""); fast.Options == want.Options || fast.Query != "mode=fast" || fast.sub != fast.Options {
		t.Errorf("mode=fast: sub-request query %q identity %q (exact: %q)", fast.Query, fast.Options, want.Options)
	}
	r := httptest.NewRequest("POST", "/v1/sweep?format=nosuch", strings.NewReader(body))
	if id, _ := Identify(r); id.Rows != "" {
		t.Errorf("a rejected query has Rows %q", id.Rows)
	} else if _, ok := id.Split([]int{0, 1}); ok {
		t.Error("a sweep with a rejected query split: it must reach a service whole")
	}
}
