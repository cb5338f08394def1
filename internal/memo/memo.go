// Package memo is the repo's one cache: claim-or-wait singleflight in front
// of an LRU over completed entries. The sweep engine memoizes sequential
// references, cell outcomes and interval series in it, and the fleet layer
// its peers' responses; both get the same contract from the one Do. Peek,
// Do's retained branch alone, never claims or waits.
package memo

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Cache maps keys to the results of the function that computes them. At
// most one execution per key is in flight at a time (the claimant's);
// callers that arrive meanwhile wait for it and receive its result.
// Retained results are kept least-recently-used first up to the limit. An
// in-flight claim is never evicted — only completed entries are tracked by
// the LRU — so eviction cannot detach a waiter from the execution filling
// its entry. A Cache is safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu        sync.Mutex
	limit     int
	entries   map[K]*entry[K, V] // in-flight claims and retained results
	lru       list.List          // retained entries, most recently used first
	evictions int
}

// entry is one flight and, once it has ended, its result. val, err and
// abandoned are written before done closes and never after, so whoever has
// seen done closed reads them without the lock; el belongs to Cache.mu.
type entry[K comparable, V any] struct {
	key  K
	done chan struct{}
	val  V
	err  error
	// abandoned marks a flight that ended in its claimant's own context
	// error: it has no result, and a waiter still live claims the key anew.
	abandoned bool
	// el is the entry's place in the LRU while it is retained.
	el *list.Element
}

// New returns a cache retaining at most limit completed entries. A limit of
// zero retains without bound; a negative limit retains nothing, which still
// collapses concurrent calls for a key onto one execution.
func New[K comparable, V any](limit int) *Cache[K, V] {
	return &Cache[K, V]{limit: limit, entries: make(map[K]*entry[K, V])}
}

// Do returns the result for key: a retained one, the result of the flight
// already computing it, or — claiming the key — that of calling run.
//
// Everyone who joined a flight receives its value and error, whatever
// retain says; retain only decides whether later callers see the result
// too or execute again. A result with a non-nil error is retained like a
// value when run says so (a deterministic failure does not improve on
// retry). The one result nobody receives is the claimant's own context
// error (run returned ctx's error): that flight is abandoned, the claimant
// gets the error, and every waiter whose context is still live retries —
// the first of them as the new claimant. A waiter whose own ctx ends first
// returns ctx.Err() and leaves the flight running.
//
// A retained entry becomes the most recently used each time Do returns it.
// onHit, if not nil, is called at most once per Do, when the call finds the
// key retained or in flight.
func (c *Cache[K, V]) Do(ctx context.Context, key K, onHit func(), run func() (v V, retain bool, err error)) (V, error) {
	joined := false
	for {
		c.mu.Lock()
		e, retained := c.lookup(key)
		if e == nil {
			e = &entry[K, V]{key: key, done: make(chan struct{})}
			c.entries[key] = e
			c.mu.Unlock()
			return c.fly(ctx, e, run)
		}
		c.mu.Unlock()
		if !joined && onHit != nil {
			onHit()
		}
		joined = true
		if retained {
			return e.val, e.err
		}
		select {
		case <-e.done:
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
		if e.abandoned {
			continue
		}
		c.mu.Lock()
		if e.el != nil {
			c.lru.MoveToFront(e.el)
		}
		c.mu.Unlock()
		return e.val, e.err
	}
}

// Peek returns key's retained result without claiming or waiting: ok is
// false when key is absent or still in flight. A retained entry becomes the
// most recently used, exactly as when Do returns it.
func (c *Cache[K, V]) Peek(key K) (v V, err error, ok bool) {
	c.mu.Lock()
	e, ok := c.lookup(key)
	c.mu.Unlock()
	if !ok {
		return v, nil, false
	}
	return e.val, e.err, true
}

// lookup returns key's entry (nil when absent) and whether it is retained,
// moving a retained entry to the front of the LRU. c.mu must be held.
func (c *Cache[K, V]) lookup(key K) (e *entry[K, V], retained bool) {
	e = c.entries[key]
	if e == nil || e.el == nil {
		return e, false
	}
	c.lru.MoveToFront(e.el)
	return e, true
}

// fly executes the claimant's run for e and ends the flight: abandoned,
// retained at the front of the LRU (evicting from the back to the limit),
// or handed to the waiters only.
func (c *Cache[K, V]) fly(ctx context.Context, e *entry[K, V], run func() (V, bool, error)) (V, error) {
	v, retain, err := run()
	c.mu.Lock()
	switch {
	case err != nil && ctx.Err() != nil && errors.Is(err, ctx.Err()):
		e.abandoned = true
		delete(c.entries, e.key)
	case retain && c.limit >= 0:
		e.val, e.err = v, err
		e.el = c.lru.PushFront(e)
		for c.limit > 0 && c.lru.Len() > c.limit {
			old := c.lru.Remove(c.lru.Back()).(*entry[K, V])
			old.el = nil
			delete(c.entries, old.key)
			c.evictions++
		}
	default:
		e.val, e.err = v, err
		delete(c.entries, e.key)
	}
	close(e.done)
	c.mu.Unlock()
	return v, err
}

// Occupancy is a cache's retention snapshot, for pressure metrics.
type Occupancy struct {
	// Entries counts retained results plus in-flight claims.
	Entries int
	// Limit is the retention bound (0: unbounded, negative: none retained).
	Limit int
	// Evictions counts retained entries dropped to stay within Limit.
	Evictions int
}

// Occupancy reports how full the cache is and how much it has evicted.
func (c *Cache[K, V]) Occupancy() Occupancy {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Occupancy{Entries: len(c.entries), Limit: c.limit, Evictions: c.evictions}
}
