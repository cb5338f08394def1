package speedupstack

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/sim"
)

// TestArtifactRegistryDocumented holds PAPER.md's figure map and README's
// `experiments` usage line to the artifact registry: every `all` section has
// a map row, every row names a registered section, and the usage line lists
// exactly the registry plus "all".
func TestArtifactRegistryDocumented(t *testing.T) {
	registered := map[string]bool{}
	for _, a := range exp.Artifacts {
		registered[a.Name] = true
	}

	paper, err := os.ReadFile("PAPER.md")
	if err != nil {
		t.Fatal(err)
	}
	mapped := map[string]bool{}
	section := regexp.MustCompile("`experiments ([\\w-]+)")
	for _, line := range strings.Split(string(paper), "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		for _, m := range section.FindAllStringSubmatch(line, -1) {
			mapped[m[1]] = true
			if !registered[m[1]] {
				t.Errorf("PAPER.md: a figure-map row names `experiments %s`, which exp.Artifacts lacks", m[1])
			}
		}
	}
	for _, a := range exp.Artifacts {
		if !a.OnDemand && !mapped[a.Name] {
			t.Errorf("PAPER.md: no figure-map row names `experiments %s`", a.Name)
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`experiments \[flags\] \[([^\]]+)\]`).FindSubmatch(readme)
	if m == nil {
		t.Fatal("README.md: no `experiments [flags] [...]` usage line")
	}
	listed := strings.Split(string(m[1]), "|")
	want := []string{"all"}
	for name := range registered {
		want = append(want, name)
	}
	slices.Sort(listed)
	slices.Sort(want)
	if !slices.Equal(slices.Compact(listed), want) {
		t.Errorf("README.md's usage line lists %v; the registry plus all is %v", listed, want)
	}
}

// TestAdviseBoundsDocumented holds README's advisor-bounds sentence and the
// refusal it quotes to the constants: moving MinAdviseThreads or
// MaxAdviseThreads fails here until README follows.
func TestAdviseBoundsDocumented(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Join(strings.Fields(string(readme)), " ")
	for _, want := range []string{
		fmt.Sprintf("The sweep top must lie in [%d, %d] (`MinAdviseThreads`, `MaxAdviseThreads`:", MinAdviseThreads, MaxAdviseThreads),
		fmt.Sprintf("`max_threads must be in [%d,%d], got N`", MinAdviseThreads, MaxAdviseThreads),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("README.md lacks %q", want)
		}
	}
}

// TestMetricTableDocumented holds README's metric table to the live page:
// the families a service wrapped in a one-member fleet declares in its
// # TYPE lines are exactly the table's rows, and every speedupd_ metric
// README.md or ARCHITECTURE.md names is one of them.
func TestMetricTableDocumented(t *testing.T) {
	svc := service.New(service.Options{Engine: exp.NewEngine(sim.Default(), exp.WithWorkers(1))})
	node, err := fleet.Wrap(svc.Handler(), fleet.Options{Self: "http://self", Peers: []string{"http://self"}})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	node.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	families := map[string]bool{}
	var declared []string
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (\S+) `).FindAllStringSubmatch(w.Body.String(), -1) {
		families[m[1]] = true
		declared = append(declared, m[1])
	}
	if len(families) == 0 {
		t.Fatalf("/metrics declares no family:\n%s", w.Body)
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, m := range regexp.MustCompile("(?m)^\\| `(speedupd_[a-z_]+)` \\|").FindAllStringSubmatch(string(readme), -1) {
		rows = append(rows, m[1])
	}
	slices.Sort(rows)
	slices.Sort(declared)
	if !slices.Equal(rows, declared) {
		t.Errorf("README.md's metric table lists %v; the page declares %v", rows, declared)
	}
	for _, doc := range []string{"README.md", "ARCHITECTURE.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range regexp.MustCompile(`speedupd_[a-z_]+`).FindAllString(string(text), -1) {
			if !families[name] {
				t.Errorf("%s names %s, which /metrics does not declare", doc, name)
			}
		}
	}
}
