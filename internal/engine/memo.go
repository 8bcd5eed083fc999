package engine

import (
	"context"
	"errors"
	"sync"
)

// memo is the engine's one keyed cache: a concurrency-safe, singleflight,
// keep-first map. Program images and simulation results are memos, and so
// is the cross-sweep ResultCache the dist coordinator and the sweep service
// share. Every key fully determines its value, which is what makes the three
// rules below sound:
//
//   - do computes each key at most once at a time: concurrent callers of an
//     in-flight key wait for its leader instead of duplicating the work.
//   - Failures are never stored, so a cancelled leader cannot poison its key
//     for later callers with a live context.
//   - put keeps an existing entry: a second value for a key is by
//     definition the same value.
//
// The zero value is ready to use.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoCall[V]
}

// memoCall is one entry: in flight until done is closed, then v (err is
// only ever set on a leader's failed call, which is never left in the map).
type memoCall[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// do returns key's value, computing it with fn if no caller has. shared
// reports that the value came from another caller's computation. A caller
// whose ctx ends while it waits returns ctx.Err(); a caller whose leader
// failed on the leader's own cancelled context retries as the new leader
// while its own context is live.
func (c *memo[K, V]) do(ctx context.Context, key K, fn func() (V, error)) (v V, shared bool, err error) {
	for {
		call, leader := c.claim(key)
		if leader {
			call.v, call.err = fn()
			if call.err != nil {
				c.mu.Lock()
				delete(c.m, key)
				c.mu.Unlock()
			}
			close(call.done)
			return call.v, false, call.err
		}
		select {
		case <-call.done:
		case <-ctx.Done():
			return v, true, ctx.Err()
		}
		if call.err == nil {
			return call.v, true, nil
		}
		if !isCtxErr(call.err) || ctx.Err() != nil {
			return v, true, call.err
		}
	}
}

// claim returns key's entry, or makes the caller its leader by adding an
// in-flight one.
func (c *memo[K, V]) claim(key K) (call *memoCall[V], leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if call, ok := c.m[key]; ok {
		return call, false
	}
	if c.m == nil {
		c.m = make(map[K]*memoCall[V])
	}
	call = &memoCall[V]{done: make(chan struct{})}
	c.m[key] = call
	return call, true
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// get returns key's value without waiting: an in-flight key is a miss.
func (c *memo[K, V]) get(key K) (v V, ok bool) {
	c.mu.Lock()
	call, ok := c.m[key]
	c.mu.Unlock()
	if !ok {
		return v, false
	}
	select {
	case <-call.done:
		return call.v, call.err == nil
	default:
		return v, false
	}
}

// put stores v under key unless the key already has an entry.
func (c *memo[K, V]) put(key K, v V) {
	if call, leader := c.claim(key); leader {
		call.v = v
		close(call.done)
	}
}

// len reports how many keys the memo holds or is computing.
func (c *memo[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
