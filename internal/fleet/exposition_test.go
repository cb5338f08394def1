package fleet

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The one reader of metric values in this package's tests, internal and
// external (ParseMetrics): parseMetrics below is
// internal/service/exposition_test.go's, copied because test files do not
// cross packages, and TestParseMetricsIsTheServices keeps the copy exact.

// ParseMetrics exports parseMetrics to the external test package.
var ParseMetrics = parseMetrics

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

// TestParseMetricsIsTheServices fails when the copy above and the service's
// parser differ by a byte.
func TestParseMetricsIsTheServices(t *testing.T) {
	parser := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m := regexp.MustCompile(`(?s)var \(\n\tmetricName.*?\nfunc parseMetrics\(.*?\n}\n`).Find(data)
		if m == nil {
			t.Fatalf("%s: no parseMetrics", path)
		}
		return string(m)
	}
	if parser("exposition_test.go") != parser("../service/exposition_test.go") {
		t.Error("parseMetrics differs from internal/service/exposition_test.go's")
	}
}
