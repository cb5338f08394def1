package service

import (
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/exp"
	"repro/internal/sim"
)

// The one reader of metric values in this package's tests: parseMetrics
// checks a page against the text exposition format as /metrics writes it,
// and every test reads values through scrape. A substring check would match
// a family's # HELP line as readily as its sample.

var (
	metricName = `[a-zA-Z_:][a-zA-Z0-9_:]*`
	labelPair  = `[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"`
	declLine   = regexp.MustCompile(`^# (HELP|TYPE) (` + metricName + `) (.+)$`)
	sampleLine = regexp.MustCompile(`^(` + metricName + `)((?:\{` + labelPair + `(?:,` + labelPair + `)*\})?) (\S+)$`)
)

// parseMetrics reads a text exposition page into the value of every sample,
// keyed by the sample as printed (name and labels), and the type of every
// family. It fails unless every family has exactly one HELP and one TYPE
// line, both before its samples; every TYPE is counter or gauge and every
// counter's name ends in _total; every sample has well-formed labels and a
// float value; and no family or sample appears twice.
func parseMetrics(page string) (values map[string]float64, types map[string]string, err error) {
	values, types = map[string]float64{}, map[string]string{}
	if !strings.HasSuffix(page, "\n") {
		return nil, nil, fmt.Errorf("the page does not end in a newline")
	}
	declared := map[string]int{} // per family: 1 once its HELP is read, 2 once its TYPE is
	open := ""                   // the family whose lines are being read
	for i, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		bad := func(why string) error { return fmt.Errorf("line %d %q: %s", i+1, line, why) }
		if m := declLine.FindStringSubmatch(line); m != nil {
			kind, name, rest := m[1], m[2], m[3]
			bit := map[string]int{"HELP": 1, "TYPE": 2}[kind]
			switch {
			case name != open && declared[name] != 0:
				return nil, nil, bad("the family appears twice")
			case declared[name]&bit != 0:
				return nil, nil, bad("a second " + kind)
			case kind == "TYPE" && rest != "counter" && rest != "gauge":
				return nil, nil, bad("the type is neither counter nor gauge")
			case kind == "TYPE" && rest == "counter" && !strings.HasSuffix(name, "_total"):
				return nil, nil, bad("a counter's name must end in _total")
			}
			declared[name] |= bit
			open = name
			if kind == "TYPE" {
				types[name] = rest
			}
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			return nil, nil, bad("neither a HELP, a TYPE nor a sample")
		}
		if m[1] != open || declared[open] != 3 {
			return nil, nil, bad("a sample outside its family, or before its HELP and TYPE")
		}
		if _, dup := values[m[1]+m[2]]; dup {
			return nil, nil, bad("the sample appears twice")
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, nil, bad("the value is not a float")
		}
		values[m[1]+m[2]] = v
	}
	for name, d := range declared {
		if d != 3 {
			return nil, nil, fmt.Errorf("family %s lacks its HELP or its TYPE", name)
		}
	}
	return values, types, nil
}

// metricPage is one parsed scrape.
type metricPage struct {
	values map[string]float64
	types  map[string]string
}

// scrape GETs /metrics from h; a page that fails parseMetrics fails the test.
func scrape(t *testing.T, h http.Handler) metricPage {
	t.Helper()
	w := get(t, h, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status %d: %s", w.Code, w.Body)
	}
	values, types, err := parseMetrics(w.Body.String())
	if err != nil {
		t.Fatalf("/metrics: %v\n%s", err, w.Body)
	}
	return metricPage{values, types}
}

// value is one sample's value; a sample the page lacks fails the test.
func (p metricPage) value(t *testing.T, sample string) float64 {
	t.Helper()
	v, ok := p.values[sample]
	if !ok {
		t.Fatalf("/metrics has no sample %s", sample)
	}
	return v
}

// want fails the test for each sample whose value differs from want's.
func (p metricPage) want(t *testing.T, want map[string]float64) {
	t.Helper()
	for sample, v := range want {
		if got, ok := p.values[sample]; !ok || got != v {
			t.Errorf("/metrics %s = %v (listed %v), want %v", sample, got, ok, v)
		}
	}
}

// TestParseMetricsRejects holds the parser to each rule it enforces, so a
// page that passes it is known to be in the format.
func TestParseMetricsRejects(t *testing.T) {
	const ok = "# HELP a_total A.\n# TYPE a_total counter\na_total{k=\"v\"} 1\n"
	if _, _, err := parseMetrics(ok); err != nil {
		t.Fatalf("a valid page: %v", err)
	}
	for name, page := range map[string]string{
		"no newline":          strings.TrimSuffix(ok, "\n"),
		"no HELP":             "# TYPE a_total counter\na_total 1\n",
		"no TYPE":             "# HELP a_total A.\na_total 1\n",
		"sample first":        "a_total 1\n" + ok,
		"two HELPs":           "# HELP a_total A.\n" + ok,
		"two TYPEs":           "# HELP a_total A.\n# TYPE a_total counter\n# TYPE a_total counter\n",
		"counter sans _total": "# HELP a A.\n# TYPE a counter\na 1\n",
		"unknown type":        "# HELP a A.\n# TYPE a histogram\n",
		"family twice":        ok + "# HELP b B.\n# TYPE b gauge\n" + ok,
		"sample twice":        ok + "a_total{k=\"v\"} 2\n",
		"foreign sample":      ok + "b_total 1\n",
		"bad label":           "# HELP a A.\n# TYPE a gauge\na{k=v} 1\n",
		"unquoted escape":     "# HELP a A.\n# TYPE a gauge\na{k=\"\\t\"} 1\n",
		"bad value":           "# HELP a A.\n# TYPE a gauge\na one\n",
		"timestamp":           "# HELP a A.\n# TYPE a gauge\na 1 1700000000\n",
		"blank line":          ok + "\n",
	} {
		if _, _, err := parseMetrics(page); err == nil {
			t.Errorf("%s: parsed\n%s", name, page)
		}
	}
}

// TestMetricsExposition parses a standalone page after traffic that lists
// every family: hits, misses, a 404, shed and rate-limited requests. Every
// route is listed, at 0 until it is requested.
func TestMetricsExposition(t *testing.T) {
	s, _ := newTestServer(t)
	fresh := map[string]float64{}
	for _, rt := range routes {
		fresh[`speedupd_requests_total{path="`+rt.path+`"}`] = 0
	}
	fresh[`speedupd_requests_total{path="/metrics"}`] = 1 // the scrape itself
	scrape(t, s.Handler()).want(t, fresh)
	target := "/v1/stack?bench=" + testBench + "&threads=2"
	get(t, s.Handler(), target)
	get(t, s.Handler(), target)
	get(t, s.Handler(), "/v1/stack?bench=nope&threads=2")
	s.limiter = newRateLimiter(0.001)
	get(t, s.Handler(), target)
	get(t, s.Handler(), target)
	p := scrape(t, s.Handler())
	p.want(t, map[string]float64{
		`speedupd_requests_total{path="/v1/stack"}`:       5,
		`speedupd_requests_total{path="/metrics"}`:        2,
		`speedupd_responses_total{code="200"}`:            4, // three stacks and the first scrape
		`speedupd_responses_total{code="404"}`:            1,
		`speedupd_responses_total{code="429"}`:            1,
		`speedupd_throttled_total{reason="rate_limited"}`: 1,
		`speedupd_throttled_total{reason="overloaded"}`:   0,
		"speedupd_sim_cell_runs_total":                    1,
		"speedupd_sim_cell_memo_hits_total":               2,
		"speedupd_admitted_inflight":                      0,
	})
	if p.value(t, "speedupd_simulated_ops_total") == 0 {
		t.Error("a simulation ran no operations")
	}
	for _, gone := range []string{"speedupd_cache_hit_rate", "speedupd_simulated_ops_per_second"} {
		if _, ok := p.types[gone]; ok {
			t.Errorf("/metrics still lists the derived gauge %s", gone)
		}
	}
}

// TestAdmittedInflightUnbounded holds a simulation open at the default
// MaxInFlight 0, where admission is unbounded: the request is still inside
// a simulating route, and the gauge says so.
func TestAdmittedInflightUnbounded(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	e := exp.NewEngine(sim.Default(), exp.WithWorkers(2),
		exp.WithRunHook(func(kind, bench string, threads, cores int) {
			once.Do(func() { close(entered); <-release })
		}))
	s := New(Options{Engine: e})
	done := make(chan struct{})
	go func() {
		defer close(done)
		get(t, s.Handler(), "/v1/stack?bench="+testBench+"&threads=2")
	}()
	<-entered
	got := scrape(t, s.Handler()).value(t, "speedupd_admitted_inflight")
	close(release)
	<-done
	if got != 1 {
		t.Errorf("speedupd_admitted_inflight = %v with one simulation held open, want 1", got)
	}
	scrape(t, s.Handler()).want(t, map[string]float64{"speedupd_admitted_inflight": 0})
}

// TestMetricsConcurrentScrape is the fence for counters without a lock:
// while memo hits, misses and shed requests run, a scraper parses page
// after page. In every page exact + fast runs equal all cell runs; between
// pages no counter moves back; at the end the per-route requests and the
// per-code responses add up to the requests sent.
func TestMetricsConcurrentScrape(t *testing.T) {
	var hold atomic.Bool
	entered, release := make(chan struct{}, 2), make(chan struct{}) // one entry per held miss
	e := exp.NewEngine(sim.Default(), exp.WithWorkers(2),
		exp.WithRunHook(func(kind, bench string, threads, cores int) {
			if kind == "cell" && hold.Load() {
				entered <- struct{}{}
				<-release
			}
		}))
	s := New(Options{Engine: e, MaxInFlight: 2})
	h := s.Handler()
	stack := func(threads int) string {
		return fmt.Sprintf("/v1/stack?bench=%s&threads=%d", testBench, threads)
	}
	get(t, h, stack(1)) // the memo hit below
	sent := 1

	stop := make(chan struct{})
	scraped := make(chan int)
	go func() {
		n, last := 0, map[string]float64{}
		defer func() { scraped <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			w := get(t, h, "/metrics")
			n++
			values, types, err := parseMetrics(w.Body.String())
			if err != nil {
				t.Errorf("scrape %d: %v", n, err)
				return
			}
			if runs := values["speedupd_sim_cell_runs_total"]; values["speedupd_sim_cell_runs_exact_total"]+values["speedupd_sim_cell_runs_fast_total"] != runs {
				t.Errorf("scrape %d: exact + fast != %v cell runs", n, runs)
			}
			for sample, v := range last {
				name, _, _ := strings.Cut(sample, "{")
				if types[name] == "counter" && values[sample] < v {
					t.Errorf("scrape %d: %s went from %v to %v", n, sample, v, values[sample])
				}
			}
			last = values
		}
	}()

	// Two misses fill both admission slots and wait in the run hook; every
	// simulating request now is shed.
	hold.Store(true)
	var misses sync.WaitGroup
	for _, threads := range []int{2, 4} {
		misses.Add(1)
		go func() { defer misses.Done(); get(t, h, stack(threads)) }()
	}
	sent += 2
	<-entered
	<-entered
	// Two clients, so once the slots are free nothing is shed. Each sends
	// perClient requests to target(client, i) and as many to /healthz.
	var clients sync.WaitGroup
	send := func(perClient int, target func(client, i int) string) {
		for c := range 2 {
			clients.Add(1)
			go func() {
				defer clients.Done()
				for i := range perClient {
					get(t, h, target(c, i))
					get(t, h, "/healthz")
				}
			}()
		}
		clients.Wait()
		sent += 2 * perClient * 2
	}
	hit := func(int, int) string { return stack(1) }
	send(10, hit) // shed
	hold.Store(false)
	close(release)
	misses.Wait()
	send(10, hit) // memo hits
	// Eight fast-mode misses, whose runs land while pages are being drawn.
	send(4, func(c, i int) string { return stack(1+4*c+i) + "&mode=fast" })
	close(stop)
	scrapes := <-scraped

	p := scrape(t, h)
	requests, responses := 0.0, 0.0
	for sample, v := range p.values {
		switch name, _, _ := strings.Cut(sample, "{"); name {
		case "speedupd_requests_total":
			requests += v
		case "speedupd_responses_total":
			responses += v
		}
	}
	// The scrapes are requests too; the last one has not answered yet.
	if requests != float64(sent+scrapes+1) || responses != float64(sent+scrapes) {
		t.Errorf("%v requests and %v responses counted for %d sent and %d scrapes", requests, responses, sent, scrapes+1)
	}
	p.want(t, map[string]float64{ // shed while both slots were held
		`speedupd_throttled_total{reason="overloaded"}`: 20,
		`speedupd_responses_total{code="429"}`:          20,
		"speedupd_sim_cell_runs_total":                  11,
		"speedupd_sim_cell_runs_fast_total":             8,
	})
}
