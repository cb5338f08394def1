// Package reuse resizes the slices behind a simulated machine's storage —
// tag arrays, tag directories, the controller's banks and ORAs, per-core
// state — so that one pooled machine serves every configuration: a slice
// is reallocated only when a run needs more than its capacity.
package reuse

// Zeroed returns s resized to n zero elements. It reuses s's backing array
// when its capacity is enough, clearing only the n elements in use, and
// allocates a new one otherwise.
func Zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Grown returns s resized to n elements, keeping the value of every element
// within its capacity, those past len(s) included, so that elements owning
// storage of their own (a core's tag array, a thread's op ring) keep it
// from one run to the next.
func Grown[T any](s []T, n int) []T {
	if n > cap(s) {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}
