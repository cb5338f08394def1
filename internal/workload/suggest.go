package workload

import (
	"errors"
	"fmt"
	"strings"
)

// ErrUnknownBenchmark tags lookup failures for a name that is not in the
// registry. Callers branch on it with errors.Is — the speedupd service maps
// it to HTTP 404 — while the message (built by UnknownBenchmarkError)
// carries the nearest-name suggestion shared by every front end.
var ErrUnknownBenchmark = errors.New("unknown benchmark")

// BenchmarkLookupError is the typed form of a failed registry lookup. It
// matches ErrUnknownBenchmark under errors.Is, and carries the nearest-name
// suggestion as a field so structured surfaces (the speedupd error envelope)
// can expose it machine-readably while Error() keeps rendering the exact
// message every front end has always shown.
type BenchmarkLookupError struct {
	// Name is the name that failed to resolve; Suggestion the closest
	// registered name, or "" when nothing is plausibly intended.
	Name       string
	Suggestion string
}

// Error renders the message every front end shows: the failed name plus
// the did-you-mean suggestion when one exists.
func (e *BenchmarkLookupError) Error() string {
	if e.Suggestion != "" {
		return fmt.Sprintf("%v %q (did you mean %q?)", ErrUnknownBenchmark, e.Name, e.Suggestion)
	}
	return fmt.Sprintf("%v %q (not one of the %d registered analogues)", ErrUnknownBenchmark, e.Name, len(registry))
}

// Is makes errors.Is(err, ErrUnknownBenchmark) hold for wrapped lookup
// errors without a separate sentinel in the chain.
func (e *BenchmarkLookupError) Is(target error) bool { return target == ErrUnknownBenchmark }

// UnknownBenchmarkError builds the user-facing error for a failed lookup,
// including the closest registered name when one is plausibly intended.
// The CLI and the HTTP service both surface this exact message; the service
// additionally lifts the typed Suggestion into its error envelope.
func UnknownBenchmarkError(name string) error {
	return &BenchmarkLookupError{Name: name, Suggestion: Suggest(name)}
}

// Suggest returns the registered name (FullName or plain name, of an
// analogue or a contention pattern — every name ByName resolves) nearest to
// name, or "" when nothing is plausibly intended. Ties go to the earlier
// entry, analogues before patterns.
func Suggest(name string) string {
	candidates := make([]string, 0, 2*len(index.entries))
	for _, e := range index.entries {
		candidates = append(candidates, e.fullName, e.bench.Spec.Name)
	}
	return Nearest(name, candidates)
}

// Nearest returns the candidate closest to name by case-insensitive edit
// distance, or "" when nothing is close enough to be a plausible typo
// (distance greater than 2 or a third of the input). Ties go to the earlier
// candidate. It is the one did-you-mean behind benchmark names and what-if
// intervention IDs.
func Nearest(name string, candidates []string) string {
	in := strings.ToLower(name)
	limit := max(2, len(in)/3)
	best, bestDist := "", limit+1
	for _, cand := range candidates {
		if d := editDistance(in, strings.ToLower(cand)); d < bestDist {
			best, bestDist = cand, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between a and b, two rows at a
// time. The inputs are short names, so O(len(a)*len(b)) is fine.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
