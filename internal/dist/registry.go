package dist

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"fdip/internal/engine"
)

// Registry is the dynamic session pool: a Dialer over a self-registering,
// heartbeat-expiring set of HTTP workers. Where an HTTP dialer is pinned to
// one worker up front, a Registry discovers capacity at run time — workers
// announce themselves (and keep re-announcing within their TTL), Dial blocks
// until at least one live worker exists and then rotates across them, and a
// session failure drops its worker immediately so the coordinator's
// retry-with-reassignment path lands on a different one (a still-healthy
// worker re-registers itself on its next heartbeat and rejoins the rotation).
//
// Registries are safe for concurrent use by any number of coordinators; a
// sweep service shares one Registry across every sweep it runs.
type Registry struct {
	ttl time.Duration
	now func() time.Time // test hook; time.Now outside tests

	mu      sync.Mutex
	workers map[string]*regWorker
	order   []string      // registration order, the rotation ring
	next    int           // rotation cursor
	wake    chan struct{} // closed and replaced whenever a worker (re)arrives

	closeOnce sync.Once
	closed    chan struct{} // closed by Close; releases blocked Dials
}

// ErrRegistryClosed is returned by Dial after Close — the shutdown escape
// hatch that keeps a draining coordinator from blocking forever on a pool
// that will never refill.
var ErrRegistryClosed = errors.New("dist: registry closed")

// WorkerInfo describes one registered worker.
type WorkerInfo struct {
	ID  string `json:"id"`
	URL string `json:"url"`
	// ExpiresIn is the remaining heartbeat budget at snapshot time.
	ExpiresIn time.Duration `json:"expires_in_ns"`
}

type regWorker struct {
	url     string
	expires time.Time
	slots   int // from the worker's last answered run (0 = not yet known)
}

// NewRegistry builds a registry whose registrations expire ttl after their
// last heartbeat (0 = default 15s).
func NewRegistry(ttl time.Duration) *Registry {
	if ttl <= 0 {
		ttl = 15 * time.Second
	}
	return &Registry{
		ttl:     ttl,
		now:     time.Now,
		workers: make(map[string]*regWorker),
		wake:    make(chan struct{}),
		closed:  make(chan struct{}),
	}
}

// Close permanently shuts the registry: every blocked Dial (and all future
// ones) returns ErrRegistryClosed. Registrations and Live remain readable.
func (r *Registry) Close() {
	r.closeOnce.Do(func() { close(r.closed) })
}

// Register announces (or heartbeats) a worker: id names it stably across
// heartbeats, url is its dist HTTP endpoint, ttl overrides the registry
// default for this worker (0 = default). Re-registering an id refreshes its
// expiry and updates its URL without losing its rotation slot.
func (r *Registry) Register(id, url string, ttl time.Duration) {
	if ttl <= 0 {
		ttl = r.ttl
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[id]
	if !ok {
		w = &regWorker{}
		r.workers[id] = w
		r.order = append(r.order, id)
	}
	w.url = url
	w.expires = r.now().Add(ttl)
	// Wake any Dial blocked on an empty pool.
	close(r.wake)
	r.wake = make(chan struct{})
}

// Deregister removes a worker immediately (clean worker shutdown, or a
// session failure reported by a coordinator).
func (r *Registry) Deregister(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dropLocked(id)
}

func (r *Registry) dropLocked(id string) {
	if _, ok := r.workers[id]; !ok {
		return
	}
	delete(r.workers, id)
	for i, o := range r.order {
		if o == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			if r.next > i {
				r.next--
			}
			break
		}
	}
}

// pruneLocked drops expired registrations.
func (r *Registry) pruneLocked() {
	now := r.now()
	for i := 0; i < len(r.order); {
		id := r.order[i]
		if r.workers[id].expires.Before(now) {
			r.dropLocked(id)
			continue
		}
		i++
	}
}

// Live snapshots the currently registered, unexpired workers (sorted by id).
func (r *Registry) Live() []WorkerInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pruneLocked()
	now := r.now()
	out := make([]WorkerInfo, 0, len(r.workers))
	for id, w := range r.workers {
		out = append(out, WorkerInfo{ID: id, URL: w.url, ExpiresIn: w.expires.Sub(now)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Slots reports the largest slot count among the live workers (Slotted), so
// a coordinator's pieces fill even the widest of them. It is 0 — whole
// ranges — while the pool is empty or any live worker has not yet answered
// a run through this registry.
func (r *Registry) Slots() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pruneLocked()
	slots := 0
	for _, w := range r.workers {
		if w.slots == 0 {
			return 0
		}
		slots = max(slots, w.slots)
	}
	return slots
}

// pick returns the next live worker in rotation, or ok=false with a wake
// channel to wait on when the pool is empty.
func (r *Registry) pick() (id, url string, wake <-chan struct{}, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pruneLocked()
	if len(r.order) == 0 {
		return "", "", r.wake, false
	}
	r.next %= len(r.order)
	id = r.order[r.next]
	r.next++
	return id, r.workers[id].url, nil, true
}

// Dial returns a session against the next live worker in rotation, blocking
// while the pool is empty (until ctx ends). The session is pinned to its
// worker; a Run failure deregisters that worker before the error propagates,
// so the coordinator's redial lands elsewhere.
func (r *Registry) Dial(ctx context.Context) (Session, error) {
	for {
		select {
		case <-r.closed:
			return nil, ErrRegistryClosed
		default:
		}
		id, url, wake, ok := r.pick()
		if !ok {
			select {
			case <-wake:
				continue
			case <-r.closed:
				return nil, ErrRegistryClosed
			case <-ctx.Done():
				return nil, fmt.Errorf("dist: registry: no live workers: %w", ctx.Err())
			}
		}
		inner, err := (HTTP{URL: url}).Dial(ctx)
		if err != nil {
			// A malformed registration URL: drop it rather than looping on it.
			r.Deregister(id)
			continue
		}
		return &registrySession{httpSession: inner.(*httpSession), reg: r, id: id}, nil
	}
}

// registrySession pins a session to its registry entry so failures evict the
// worker from the rotation, and answers teach the registry the worker's
// slots.
type registrySession struct {
	*httpSession
	reg *Registry
	id  string
}

func (s *registrySession) Run(ctx context.Context, a Assignment, emit func(engine.RunOutcome) error) error {
	err := s.httpSession.Run(ctx, a, emit)
	if err != nil && ctx.Err() == nil {
		s.reg.Deregister(s.id)
		return err
	}
	if s.slots > 0 {
		s.reg.mu.Lock()
		if w, ok := s.reg.workers[s.id]; ok {
			w.slots = s.slots
		}
		s.reg.mu.Unlock()
	}
	return err
}
