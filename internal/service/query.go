package service

import (
	"net/url"
	"strings"
)

// query is a request's raw query string (URL.RawQuery), read in place by
// url.ParseQuery's rules without building its map: pairs split on "&", an
// empty pair or one holding ";" skipped, names and values unescaped by
// url.QueryUnescape ("+" is a space), a pair that fails to unescape
// dropped, and a name's value its first surviving one. Reading it
// allocates only what an escaped name or value unescapes to; the dispatcher,
// Identify, Split and writeError all read the query this way, and only a
// refusal's option identity builds the url.Values form.
type query string

// cut returns q's first surviving pair, unescaped, and the query after it;
// ok is false when no pair survives.
func (q query) cut() (name, value string, rest query, ok bool) {
	for s := string(q); s != ""; {
		var pair string
		pair, s, _ = strings.Cut(s, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		k, err := url.QueryUnescape(k)
		if err != nil {
			continue
		}
		if v, err = url.QueryUnescape(v); err == nil {
			return k, v, query(s), true
		}
	}
	return "", "", "", false
}

// get returns name's first surviving value, "" when it has none.
func (q query) get(name string) string {
	for k, v, rest, ok := q.cut(); ok; k, v, rest, ok = rest.cut() {
		if k == name {
			return v
		}
	}
	return ""
}
