package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoPaths runs the checker over a fixture tree: live paths pass, a
// dead one is the single finding, a dead one inside a fenced block is
// ignored, and without -paths only links are checked.
func TestRepoPaths(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "cmd/tool"), 0o755); err != nil {
		t.Fatal(err)
	}
	doc := filepath.Join(root, "README.md")
	text := strings.Join([]string{
		"# Fixture",
		"Live: `cmd/tool`, `cmd/tool/`, `./cmd/tool`, `README.md`.",
		"Not paths: `go run ./cmd/gone -x`, `a/b`, `scripts/...`, `internal/gone.Bar`.",
		"Dead: `cmd/gone`.",
		"```",
		"`scripts/gone.sh`",
		"```",
		"",
	}, "\n")
	if err := os.WriteFile(doc, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}

	found, err := checkFile(doc, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 1 || !strings.Contains(found[0], "README.md:4: `cmd/gone`") {
		t.Errorf("findings %q, want exactly the dead path on line 4", found)
	}
	if found, err = checkFile(doc, false); err != nil || len(found) != 0 {
		t.Errorf("link-only run: findings %q, error %v", found, err)
	}
}
