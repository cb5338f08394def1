package service

import (
	"net/url"
	"reflect"
	"testing"
)

// FuzzQueryMatchesParseQuery holds the in-place query walk to
// url.ParseQuery, the map r.URL.Query() builds: for any raw query the walk
// visits exactly the pairs ParseQuery keeps, in order, so its names are the
// map's keys and get answers each name's first value.
func FuzzQueryMatchesParseQuery(f *testing.F) {
	for _, raw := range []string{
		"", "bench=cholesky&threads=4", "a;b=1&c=2", "a=1;b=2", "a=%zz", "%zz=1", "a=%2B", "a=1+2&b+c=3",
		"&&a=1&&", "=x", "a=1=2", "a=1&a=2&b=3&a=4", "a=%zz&a=2", "a&b=&=", "format=%6Aso%6E&threads=2&threads=4",
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		want, _ := url.ParseQuery(raw)
		got := url.Values{}
		q := query(raw)
		for k, v, rest, ok := q.cut(); ok; k, v, rest, ok = rest.cut() {
			got[k] = append(got[k], v)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %q walks to %v, ParseQuery keeps %v", raw, got, want)
		}
		for _, name := range []string{"", "a", "format", "mode", "bench"} {
			if q.get(name) != want.Get(name) {
				t.Errorf("query %q: get(%q) = %q, ParseQuery's first value is %q", raw, name, q.get(name), want.Get(name))
			}
		}
		for name, vals := range want {
			if q.get(name) != vals[0] {
				t.Errorf("query %q: get(%q) = %q, ParseQuery's first value is %q", raw, name, q.get(name), vals[0])
			}
		}
	})
}
