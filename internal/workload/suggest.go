package workload

import (
	"errors"
	"fmt"
	"strings"
)

// ErrUnknownBenchmark tags lookup failures for a name that is not in the
// registry. Callers branch on it with errors.Is — the speedupd service maps
// it to HTTP 404 — while the message carries the nearest-name suggestion.
var ErrUnknownBenchmark = errors.New("unknown benchmark")

// LookupError is the one typed "unknown NAME (did you mean S?)" failure,
// behind benchmark names here and intervention IDs in internal/whatif. It
// unwraps to its sentinel and carries the nearest-name suggestion as a field,
// so structured surfaces (the speedupd error envelope) expose it
// machine-readably while Error() renders the message every front end shows.
type LookupError struct {
	// Sentinel names what was looked up ("unknown benchmark"); callers
	// branch on it with errors.Is.
	Sentinel error
	// Name is the name that failed to resolve; Suggestion the closest
	// known name, or "" when nothing is plausibly intended.
	Name       string
	Suggestion string
	// Tail is the parenthetical shown instead when there is no suggestion.
	Tail string
}

// Error is the failed name plus the did-you-mean suggestion, or the tail.
func (e *LookupError) Error() string {
	if e.Suggestion != "" {
		return fmt.Sprintf("%v %q (did you mean %q?)", e.Sentinel, e.Name, e.Suggestion)
	}
	return fmt.Sprintf("%v %q (%s)", e.Sentinel, e.Name, e.Tail)
}

// Unwrap exposes the sentinel to errors.Is.
func (e *LookupError) Unwrap() error { return e.Sentinel }

// UnknownBenchmarkError builds the LookupError for a failed registry lookup,
// with the closest registered name when one is plausibly intended.
func UnknownBenchmarkError(name string) error {
	return &LookupError{Sentinel: ErrUnknownBenchmark, Name: name, Suggestion: Suggest(name),
		Tail: fmt.Sprintf("not one of the %d registered analogues", len(registry))}
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
