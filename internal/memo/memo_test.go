package memo

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// value is run for the tests that only need a result: v, retained.
func value(v int) func() (int, bool, error) {
	return func() (int, bool, error) { return v, true, nil }
}

// flight starts a Do on key whose run blocks until the returned release is
// called, and returns once the claim is held. done receives Do's results.
func flight(ctx context.Context, c *Cache[int, int], key int, run func() (int, bool, error)) (release func(), done <-chan result) {
	claimed, gate, out := make(chan struct{}), make(chan struct{}), make(chan result, 1)
	go func() {
		v, err := c.Do(ctx, key, nil, func() (int, bool, error) {
			close(claimed)
			<-gate
			return run()
		})
		out <- result{v, err}
	}()
	<-claimed
	return func() { close(gate) }, out
}

type result struct {
	v   int
	err error
}

// join starts n waiters on key's in-flight claim and returns once every one
// of them has found it (onHit fires before a waiter blocks). rerun is what a
// waiter executes if it ends up claiming the key itself.
func join(ctx context.Context, c *Cache[int, int], key, n int, rerun func() (int, bool, error)) <-chan result {
	var joined sync.WaitGroup
	out := make(chan result, n)
	joined.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			v, err := c.Do(ctx, key, joined.Done, rerun)
			out <- result{v, err}
		}()
	}
	joined.Wait()
	return out
}

// TestSingleflight races many callers of one key: exactly one executes,
// everyone reads its value, and every other caller counts as a hit.
func TestSingleflight(t *testing.T) {
	c := New[int, int](0)
	const goroutines = 32
	var runs, hits atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Do(context.Background(), 1, func() { hits.Add(1) },
				func() (int, bool, error) { runs.Add(1); return 42, true, nil })
			if err != nil || v != 42 {
				t.Errorf("Do = %v, %v, want 42, nil", v, err)
			}
		}()
	}
	wg.Wait()
	if runs.Load() != 1 || hits.Load() != goroutines-1 {
		t.Fatalf("%d runs, %d hits, want 1 and %d", runs.Load(), hits.Load(), goroutines-1)
	}
	if got := c.Occupancy().Entries; got != 1 {
		t.Fatalf("occupancy %d entries, want 1", got)
	}
}

// TestFlightResultReachesWaiters is the one contract both users rely on:
// whatever a flight ends in — a value or an error, retained or not, in a
// cache that retains or one that does not — every caller that joined it
// receives that result from the one execution, and retention only decides
// whether a later caller executes again. The retained rows are the engine's
// (deterministic errors memoized like values), the unretained ones the
// fleet's (a non-200 or a failed fetch answers its waiters, nobody after).
func TestFlightResultReachesWaiters(t *testing.T) {
	boom := errors.New("deterministic failure")
	for _, tc := range []struct {
		name   string
		limit  int
		retain bool
		err    error
		later  int // executions a later caller adds
	}{
		{"value retained", 0, true, nil, 0},
		{"error retained", 0, true, boom, 0},
		{"value not retained", 0, false, nil, 1},
		{"error not retained", 0, false, boom, 1},
		{"negative limit retains nothing", -1, true, nil, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New[int, int](tc.limit)
			ctx := context.Background()
			var runs atomic.Int64
			run := func() (int, bool, error) { runs.Add(1); return 7, tc.retain, tc.err }
			release, claimant := flight(ctx, c, 1, run)
			const waiters = 8
			waiting := join(ctx, c, 1, waiters, run)
			release()
			for i := 0; i < waiters+1; i++ {
				var r result
				if i == 0 {
					r = <-claimant
				} else {
					r = <-waiting
				}
				if r.v != 7 || r.err != tc.err {
					t.Fatalf("caller %d got %v, %v, want 7, %v", i, r.v, r.err, tc.err)
				}
			}
			if runs.Load() != 1 {
				t.Fatalf("flight executed %d times for %d callers, want 1", runs.Load(), waiters+1)
			}
			if v, err := c.Do(ctx, 1, nil, run); v != 7 || err != tc.err {
				t.Fatalf("later caller got %v, %v", v, err)
			}
			if got := int(runs.Load()) - 1; got != tc.later {
				t.Fatalf("later caller added %d executions, want %d", got, tc.later)
			}
		})
	}
}

// TestClaimantSurvivesEviction: a claimant still executing while eviction
// pressure churns the rest of a one-entry cache must neither lose its
// waiters nor be executed twice.
func TestClaimantSurvivesEviction(t *testing.T) {
	c := New[int, int](1)
	ctx := context.Background()
	var runsA atomic.Int64
	runA := func() (int, bool, error) { runsA.Add(1); return 7, true, nil }
	release, claimant := flight(ctx, c, 1, runA)
	const waiters = 16
	waiting := join(ctx, c, 1, waiters, runA)

	// Other keys complete and evict each other under the one-entry bound.
	for k := 2; k < 34; k++ {
		if v, err := c.Do(ctx, k, nil, value(k)); v != k || err != nil {
			t.Fatalf("key %d = %v, %v", k, v, err)
		}
	}
	if occ := c.Occupancy(); occ.Entries != 2 || occ.Evictions != 31 {
		t.Fatalf("after churn: %+v, want the claim plus one retained entry and 31 evictions", occ)
	}

	release()
	if r := <-claimant; r.v != 7 || r.err != nil {
		t.Fatalf("claimant got %+v", r)
	}
	for i := 0; i < waiters; i++ {
		if r := <-waiting; r.v != 7 || r.err != nil {
			t.Fatalf("waiter got %+v", r)
		}
	}
	if runsA.Load() != 1 {
		t.Fatalf("key 1 executed %d times, want 1", runsA.Load())
	}
}

// TestConcurrentClaimsUnderEviction hammers a one-entry cache with
// concurrent calls over a small hot key set — constant claim, wait, hit,
// evict traffic — for the race detector. Every call must resolve to its
// key's value; re-executions after eviction are expected, lost results and
// deadlocks are not.
func TestConcurrentClaimsUnderEviction(t *testing.T) {
	c := New[int, int](1)
	const keys, goroutines, rounds = 4, 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (g + r) % keys
				if v, err := c.Do(context.Background(), k, nil, value(k*11)); err != nil || v != k*11 {
					t.Errorf("key %d resolved to %v, %v", k, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if occ := c.Occupancy(); occ.Entries != 1 {
		t.Fatalf("idle one-entry cache holds %+v", occ)
	}
}

// TestAbandonedClaimRetries covers cancellation: a flight that ends in its
// claimant's own context error leaves no entry, the claimant alone gets the
// error, and a waiter whose context is live claims the key and executes —
// while a waiter whose own context ends just stops waiting.
func TestAbandonedClaimRetries(t *testing.T) {
	c := New[int, int](0)
	ctx, cancel := context.WithCancel(context.Background())
	release, claimant := flight(ctx, c, 1, func() (int, bool, error) { return 0, true, ctx.Err() })

	var reruns atomic.Int64
	live := join(context.Background(), c, 1, 1, func() (int, bool, error) { reruns.Add(1); return 9, true, nil })
	gone, giveUp := context.WithCancel(context.Background())
	impatient := join(gone, c, 1, 1, value(-1))
	giveUp()
	if r := <-impatient; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("waiter with a dead context got %+v", r)
	}

	cancel()
	release()
	if r := <-claimant; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("canceled claimant got %+v", r)
	}
	if r := <-live; r.v != 9 || r.err != nil {
		t.Fatalf("live waiter got %+v, want its own execution's 9", r)
	}
	if reruns.Load() != 1 {
		t.Fatalf("live waiter executed %d times, want 1", reruns.Load())
	}
	if v, err := c.Do(context.Background(), 1, nil, value(-1)); v != 9 || err != nil {
		t.Fatalf("after the retry: %v, %v, want the retained 9", v, err)
	}
}

// TestLRUOrder pins what "recently used" means: filling and being returned
// by Do both move an entry to the front, and eviction takes the back.
func TestLRUOrder(t *testing.T) {
	c := New[int, int](2)
	ctx := context.Background()
	runs := map[int]int{}
	do := func(k int) {
		t.Helper()
		if v, err := c.Do(ctx, k, nil, func() (int, bool, error) { runs[k]++; return k, true, nil }); v != k || err != nil {
			t.Fatalf("key %d = %v, %v", k, v, err)
		}
	}
	do(1)
	do(2)
	do(1) // hit: 1 is now more recent than 2
	do(3) // evicts 2
	do(1) // still retained
	do(2) // executes again, evicting 3
	do(3)
	if runs[1] != 1 || runs[2] != 2 || runs[3] != 2 {
		t.Fatalf("executions per key %v, want 1:1 2:2 3:2", runs)
	}
	if occ := c.Occupancy(); occ.Entries != 2 || occ.Limit != 2 || occ.Evictions != 3 {
		t.Fatalf("occupancy %+v", occ)
	}
}

// TestPeek covers each state a key can be in: absent, in flight, retained
// (value or error) and evicted. Peek answers only the retained ones, and
// never claims, waits or executes.
func TestPeek(t *testing.T) {
	c := New[int, int](2)
	ctx := context.Background()
	peek := func(k int) result {
		t.Helper()
		v, err, ok := c.Peek(k)
		if !ok {
			return result{v: -1}
		}
		return result{v, err}
	}
	absent := result{v: -1}
	if r := peek(1); r != absent {
		t.Fatalf("absent key: %+v", r)
	}
	if occ := c.Occupancy(); occ.Entries != 0 {
		t.Fatalf("Peek on an absent key claimed it: %+v", occ)
	}

	release, done := flight(ctx, c, 1, value(11))
	if r := peek(1); r != absent {
		t.Fatalf("in-flight key: %+v", r)
	}
	release()
	<-done
	if r := peek(1); r != (result{11, nil}) {
		t.Fatalf("retained value: %+v", r)
	}

	boom := errors.New("boom")
	c.Do(ctx, 2, nil, func() (int, bool, error) { return 0, true, boom })
	if r := peek(2); r.v != 0 || r.err != boom {
		t.Fatalf("retained error: %+v, want 0, %v", r, boom)
	}

	c.Do(ctx, 3, nil, value(33)) // evicts 1, the least recently used
	if r := peek(1); r != absent {
		t.Fatalf("evicted key: %+v", r)
	}
	if occ := c.Occupancy(); occ.Entries != 2 || occ.Evictions != 1 {
		t.Fatalf("occupancy %+v, want 2 entries and 1 eviction", occ)
	}
}

// TestPeekPromotesLikeDo replays TestLRUOrder's access pattern with every
// hit answered by Peek instead of Do: the executions and evictions must be
// the same, so a Peek hit moves an entry exactly as a Do hit does.
func TestPeekPromotesLikeDo(t *testing.T) {
	for _, hit := range []string{"Do", "Peek"} {
		c := New[int, int](2)
		runs := map[int]int{}
		do := func(k int) {
			t.Helper()
			if hit == "Peek" {
				if v, err, ok := c.Peek(k); ok {
					if v != k || err != nil {
						t.Fatalf("Peek(%d) = %v, %v", k, v, err)
					}
					return
				}
			}
			if v, err := c.Do(context.Background(), k, nil, func() (int, bool, error) { runs[k]++; return k, true, nil }); v != k || err != nil {
				t.Fatalf("key %d = %v, %v", k, v, err)
			}
		}
		for _, k := range []int{1, 2, 1, 3, 1, 2, 3} {
			do(k)
		}
		if runs[1] != 1 || runs[2] != 2 || runs[3] != 2 {
			t.Fatalf("%s hits: executions per key %v, want 1:1 2:2 3:2", hit, runs)
		}
		if occ := c.Occupancy(); occ.Entries != 2 || occ.Evictions != 3 {
			t.Fatalf("%s hits: occupancy %+v", hit, occ)
		}
	}
}
