// Command mdcheck is an offline markdown link checker for the repo's doc
// set: every inline link in the given files is resolved, relative links
// must point at an existing file (and, with a #fragment, at a heading
// anchor that exists in the target, using GitHub's slug rules), and
// intra-document fragments must match a local heading. External http(s)
// and mailto links are syntax-checked only — CI has no business depending
// on the network. With -paths, back-ticked repo paths in prose (`cmd/…`,
// `scripts/…`, `internal/…`, `examples/…`, `benchmark/…`, `*.md`, with or
// without a trailing slash) must exist too, resolved like relative links —
// for the documents that describe the tree as it is, not the ones that
// record its history. Fenced code blocks are ignored.
//
// Usage:
//
//	go run ./scripts/mdcheck [-paths] FILE.md...
//
// Exit status is non-zero when any finding is reported; CI keeps the doc
// set warn-free.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkRE matches inline links and images: [text](target) / ![alt](target).
var linkRE = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// headingRE matches ATX headings.
var headingRE = regexp.MustCompile(`^#{1,6}\s+(.*?)\s*#*\s*$`)

// pathRE matches a code span that is nothing but a repo path: rooted at one
// of the source directories, or any markdown file. Elements are words and a
// file name may end in lowercase extensions, so a Go package pattern
// (`internal/...`) or a qualified identifier (`internal/stack.Bar`) is not a
// path.
var pathRE = regexp.MustCompile("`((?:\\./)?(?:(?:cmd|scripts|internal|examples|benchmark)/(?:[\\w-]+/)*[\\w-]*(?:\\.[a-z]+)*|(?:[\\w-]+/)*[\\w-]+\\.md))`")

func main() {
	paths := flag.Bool("paths", false, "also require back-ticked repo paths in prose to exist")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: mdcheck [-paths] FILE.md...")
		os.Exit(2)
	}
	findings := 0
	for _, path := range flag.Args() {
		found, err := checkFile(path, *paths)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdcheck: %s: %v\n", path, err)
			os.Exit(2)
		}
		for _, f := range found {
			fmt.Println(f)
		}
		findings += len(found)
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "mdcheck: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

// checkFile returns one "file:line: target: problem" finding per broken
// link — and, with paths set, per back-ticked repo path that does not
// exist — of one document.
func checkFile(path string, paths bool) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var findings []string
	for _, l := range matches(string(data), linkRE) {
		if err := checkLink(path, l.target); err != nil {
			findings = append(findings, fmt.Sprintf("%s:%d: %s: %v", path, l.line, l.target, err))
		}
	}
	if paths {
		for _, l := range matches(string(data), pathRE) {
			if _, err := os.Stat(filepath.Join(filepath.Dir(path), l.target)); err != nil {
				findings = append(findings, fmt.Sprintf("%s:%d: `%s`: path does not exist", path, l.line, l.target))
			}
		}
	}
	return findings, nil
}

// link is one extracted target with its source line.
type link struct {
	line   int
	target string
}

// matches extracts re's first submatch — a link target, a repo path or a
// heading — from every line outside fenced code blocks, in document order
// (a line may carry several).
func matches(doc string, re *regexp.Regexp) []link {
	var out []link
	fenced := false
	for i, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		for _, m := range re.FindAllStringSubmatch(line, -1) {
			out = append(out, link{line: i + 1, target: m[1]})
		}
	}
	return out
}

// checkLink validates one target relative to the document's directory.
func checkLink(docPath, target string) error {
	switch {
	case strings.HasPrefix(target, "http://"), strings.HasPrefix(target, "https://"),
		strings.HasPrefix(target, "mailto:"):
		return nil // external: syntax only
	case strings.HasPrefix(target, "#"):
		return checkAnchor(docPath, target[1:])
	}
	file, frag, _ := strings.Cut(target, "#")
	resolved := filepath.Join(filepath.Dir(docPath), file)
	if _, err := os.Stat(resolved); err != nil {
		return fmt.Errorf("target does not exist")
	}
	if frag != "" {
		return checkAnchor(resolved, frag)
	}
	return nil
}

// checkAnchor verifies that a #fragment names a heading of the target
// markdown document.
func checkAnchor(path, frag string) error {
	if !strings.HasSuffix(path, ".md") {
		return nil // fragments into non-markdown files are viewer-defined
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("anchor target unreadable: %v", err)
	}
	for _, h := range matches(string(data), headingRE) {
		if slug(h.target) == frag {
			return nil
		}
	}
	return fmt.Errorf("no heading with anchor %q", frag)
}

// slugRE strips everything GitHub drops from heading anchors.
var slugRE = regexp.MustCompile(`[^\p{L}\p{N}\s_-]`)

// slug converts a heading to its GitHub anchor: lowercase, punctuation
// removed, spaces to hyphens.
func slug(heading string) string {
	// Inline code/emphasis markers render as text content.
	heading = strings.NewReplacer("`", "", "*", "", "_", "_").Replace(heading)
	heading = slugRE.ReplaceAllString(strings.ToLower(heading), "")
	return strings.ReplaceAll(strings.TrimSpace(heading), " ", "-")
}
