package service

import (
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
)

// matrixDigests pins the SHA-256 of every route × format body on 2-thread
// cells, keyed "METHOD path format" ("" for a row that negotiates no
// format). They were recorded at the commit before the route table and the
// one encoder existed, so the table and the Document pipeline are held to
// the bytes of the hand-written handlers and the four Encode switchboards.
// The intervals svg was re-pinned when the timeline's op-count axis labels
// went from truncating to rounding (stack.fmtOps): 32k, 65k, 98k and 131k
// became 33k, 66k, 99k and 132k, and nothing else moved.
var matrixDigests = map[string]string{
	"GET /v1/stack json":                "c08ef35d75f1695679ad7be4968dfe363a37d4aac32c39845dee7f7e24f43c01",
	"GET /v1/stack ndjson":              "24a34dba10be013538912d76f4373320006f6d8c85a48635756625e124fa5d36",
	"GET /v1/stack csv":                 "1a6c5510b31e0dbe1bdecab69394885cd455758562a1f71b0385bf217bddd095",
	"GET /v1/stack svg":                 "2e43f0f6288a8710c052a0d779fa3b0e1f11a2d51777b631cd88b3560b778b98",
	"GET /v1/stack text":                "270a1be4c0de78eb4d98123c1d32fa243925407d07b2e662151393718ad8750f",
	"GET /v1/stack/intervals json":      "adbed57009a0e3b3307debb9609cbc351365f39bf654907e40b3b2feeec8d6a8",
	"GET /v1/stack/intervals ndjson":    "e45ddb97a31b25a9c0dfebb23bbaaa9a3532201b7b63cb7110c97e11a084897d",
	"GET /v1/stack/intervals csv":       "6bbfc781838ab1820f0d57f43f7833bc8dd145e20bda6ac5716fc4ab52fcccc6",
	"GET /v1/stack/intervals svg":       "180a193182cc8dd30b874f37843743cca7360f0234341b2105ffb611d9ef3b9f",
	"GET /v1/stack/intervals text":      "721dadb1a88cb8e9b95ea0b12e04108d3c08e0dd4885bd464c09c4ebf98960c9",
	"POST /v1/sweep json":               "3cbf12dac01fdbe5dc568368d6061da7dc80e7259e996126ba04e78c94f956f8",
	"POST /v1/sweep ndjson":             "d7c12d3c0317b8cb5c8e9936e6d4258e13d8e7bb7729d30ed5e42c590de3d99c",
	"POST /v1/sweep csv":                "8ae6b6317b19efedb34c9cba5f9b8a71b2aedeaa695521c3b0417b7ea4703755",
	"POST /v1/sweep svg":                "3a029857d60ecfd16e079ca63a4daac43b31f8321b011769be0063d1a155da4e",
	"POST /v1/sweep text":               "8149f0e8c7f62bbd597195d0a995a3bbf1d0de17afafc7205bd3b359864c3714",
	"POST /v1/workloads/analyze json":   "143445f1314c48d2d5a3ea75557abf38412aef5520270f9123747b74f832df79",
	"POST /v1/workloads/analyze ndjson": "1c7894a2a7a306831378b05b7c7de0b0a36e6bde157929b361e8e92dc98c1e7f",
	"POST /v1/workloads/analyze csv":    "57d643158ed8b3a65d1943a6732edf3169e6f253c50377d8aecfce0057b75c10",
	"POST /v1/workloads/analyze svg":    "29dd6a89a28123a7027fa898d69b1957da0edb77c61fffceb3e0316f71a8dd3a",
	"POST /v1/workloads/analyze text":   "9ccfbc141ebf5cacbe6d61d55f65bd2b910ed495fb604d2a1ef886586f1fe332",
	"POST /v1/workloads/validate ":      "7e5e6b2961392dd1e170e46f23eafe93acf3de1fad9694ee5f407457d21e51aa",
	"POST /v1/traces/analyze json":      "c08ef35d75f1695679ad7be4968dfe363a37d4aac32c39845dee7f7e24f43c01",
	"POST /v1/traces/analyze ndjson":    "24a34dba10be013538912d76f4373320006f6d8c85a48635756625e124fa5d36",
	"POST /v1/traces/analyze csv":       "1a6c5510b31e0dbe1bdecab69394885cd455758562a1f71b0385bf217bddd095",
	"POST /v1/traces/analyze svg":       "2e43f0f6288a8710c052a0d779fa3b0e1f11a2d51777b631cd88b3560b778b98",
	"POST /v1/traces/analyze text":      "270a1be4c0de78eb4d98123c1d32fa243925407d07b2e662151393718ad8750f",
	"GET /v1/advise json":               "b22680c92946943ed648d2a77b1566783d2e968f0625e4814225a8be52794448",
	"GET /v1/advise ndjson":             "7fa96a05cc42705cb957e1e87561d6e1138e5e10105e97f043e2dc0abcc3c6bd",
	"GET /v1/advise csv":                "3298cec82e5766d6a7e6bfe71460c6f2fd0d25b6b166c1adca90615dafa990e5",
	"GET /v1/advise svg":                "58b75e74e5fed52199282d53457e55c065957813f3a9fe58f9db0bfb6351684a",
	"GET /v1/advise text":               "92b38a32cef96677bc6dab15b2d1215553660eac159145dd83f09fe7f5ee7f32",
	"POST /v1/whatif json":              "205435a41fe9b691e59bfc35148a7d87c50debb1d3863f7915dadc88945d59a8",
	"POST /v1/whatif ndjson":            "540b4ca39b228130199d8166581b44d70fb2ae2cba822ee3ff96ca7f403063c2",
	"POST /v1/whatif csv":               "7c9eddab50cf3e3119e658016448ab6b3d77a7407de0af7dd2d9947841b1ea3c",
	"POST /v1/whatif svg":               "0d36e9c3b0dcff4b8ceb1ac64a6f5d527a002c7c1e10d7119367e4f8449e6624",
	"POST /v1/whatif text":              "604a763378b6774a4646e78eabb4c8f19d564f8789930887e0708ede3cdb1e7f",
	"GET /v1/benchmarks ":               "2a574c872d4e98c16a1de42fd47da7766fdb28a0ec10dd095c5c18ca3947e192",
	"GET /healthz ":                     "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22",
}

// matrixRequests gives each row of the table the request the matrix sends it.
func matrixRequests(t *testing.T) map[string]struct{ query, body string } {
	cell := "bench=" + testBench + "&threads=2"
	return map[string]struct{ query, body string }{
		"/v1/stack":              {query: cell},
		"/v1/stack/intervals":    {query: cell + "&intervals=4"},
		"/v1/sweep":              {body: `{"cells":[{"bench":"` + testBench + `","threads":2},{"spec":` + testSpecJSON + `,"threads":2}]}`},
		"/v1/workloads/analyze":  {body: `{"spec":` + testSpecJSON + `,"threads":2}`},
		"/v1/workloads/validate": {body: testSpecJSON},
		"/v1/traces/analyze":     {body: string(recordTestTrace(t, 2))},
		"/v1/advise":             {query: "bench=" + testBench + "&max_threads=4"},
		"/v1/whatif":             {body: `{"bench":"cholesky","threads":2}`},
		"/v1/benchmarks":         {},
		"/healthz":               {},
	}
}

// TestFormatMatrix ranges over the route table itself × every format and
// compares each body with its pinned digest. A row (or format) without a
// digest fails, so adding a route means adding its bytes here.
func TestFormatMatrix(t *testing.T) {
	s, _ := newTestServer(t)
	requests := matrixRequests(t)
	for _, rt := range routes {
		if rt.path == "/metrics" {
			continue // counters: not a fixed body
		}
		mr, ok := requests[rt.path]
		if !ok {
			t.Errorf("%s %s: no matrix request for this row", rt.method, rt.path)
			continue
		}
		formats := []string{""}
		if rt.protected {
			formats = []string{"json", "ndjson", "csv", "svg", "text"}
		}
		for _, f := range formats {
			query := mr.query
			if f != "" {
				query = strings.TrimPrefix(query+"&format="+f, "&")
			}
			target := strings.TrimSuffix(rt.path+"?"+query, "?")
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, httptest.NewRequest(rt.method, target, strings.NewReader(mr.body)))
			if w.Code != http.StatusOK {
				t.Errorf("%s %s: status %d: %.200s", rt.method, target, w.Code, w.Body)
				continue
			}
			key := rt.method + " " + rt.path + " " + f
			got := fmt.Sprintf("%x", sha256.Sum256(w.Body.Bytes()))
			if want, ok := matrixDigests[key]; !ok {
				t.Errorf("%q has no pinned digest (got %s)", key, got)
			} else if got != want {
				t.Errorf("%q: body digest %s, pinned %s", key, got, want)
			}
		}
	}
}

// TestRouteTableDocumented fails on a table path that the service package
// comment, cmd/speedupd's usage comment or README.md never mentions.
func TestRouteTableDocumented(t *testing.T) {
	for _, doc := range []string{"service.go", "../../cmd/speedupd/main.go", "../../README.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		if strings.HasSuffix(doc, ".go") {
			text = text[:strings.Index(text, "\npackage ")] // the package comment only
		}
		for _, rt := range routes {
			// The path as a whole word: /v1/stack must not pass on the
			// strength of /v1/stack/intervals.
			if !regexp.MustCompile(regexp.QuoteMeta(rt.path) + `([^/\w]|$)`).MatchString(text) {
				t.Errorf("%s never mentions %s %s", doc, rt.method, rt.path)
			}
		}
	}
}
