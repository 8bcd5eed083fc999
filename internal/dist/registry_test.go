package dist

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manual time source for registry expiry tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestRegistryRotationAndExpiry pins the pool mechanics: registration order
// is the rotation ring, a heartbeat refreshes expiry without losing the
// rotation slot, and a worker whose TTL lapses is pruned on the next access.
func TestRegistryRotationAndExpiry(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r := NewRegistry(time.Minute)
	r.now = clk.now

	r.Register("w1", "http://one", 0)
	r.Register("w2", "http://two", 0)
	var got []string
	for i := 0; i < 4; i++ {
		id, _, _, ok := r.pick()
		if !ok {
			t.Fatalf("pick %d: empty pool with two live workers", i)
		}
		got = append(got, id)
	}
	want := []string{"w1", "w2", "w1", "w2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotation %v, want %v", got, want)
		}
	}

	// Heartbeat w1 just before w2 expires; only w2 must be pruned.
	clk.advance(45 * time.Second)
	r.Register("w1", "http://one", 0)
	clk.advance(30 * time.Second)
	live := r.Live()
	if len(live) != 1 || live[0].ID != "w1" {
		t.Fatalf("after expiry: live=%v, want [w1]", live)
	}

	// Expire the rest: the pool must report empty, not rotate stale entries.
	clk.advance(2 * time.Minute)
	if _, _, _, ok := r.pick(); ok {
		t.Fatal("pick returned a worker after every TTL lapsed")
	}
	if live := r.Live(); len(live) != 0 {
		t.Fatalf("live=%v after every TTL lapsed", live)
	}
}

// TestRegistryDialBlocksUntilRegister: with an empty pool Dial must park, wake
// the moment a worker announces itself, and respect context cancellation.
func TestRegistryDialBlocksUntilRegister(t *testing.T) {
	r := NewRegistry(time.Minute)

	type dialRes struct {
		s   Session
		err error
	}
	done := make(chan dialRes, 1)
	go func() {
		s, err := r.Dial(context.Background())
		done <- dialRes{s, err}
	}()
	select {
	case res := <-done:
		t.Fatalf("Dial returned (%v, %v) with an empty pool", res.s, res.err)
	case <-time.After(20 * time.Millisecond):
	}
	r.Register("w1", "http://one", 0)
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatalf("Dial after Register: %v", res.err)
		}
		res.s.Close()
	case <-time.After(2 * time.Second):
		t.Fatal("Dial still blocked after a worker registered")
	}

	// And an empty pool + dead context is an error, not a hang.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	r.Deregister("w1")
	if _, err := r.Dial(ctx); err == nil {
		t.Fatal("Dial on an empty pool ignored context cancellation")
	}
}

// TestRegistrySweepWithSelfRegisteredWorkers is the dynamic-pool analogue of
// the static sharded-merge proof: two workers register themselves (instead of
// being listed up front) and the sweep must reassemble bit-identically.
func TestRegistrySweepWithSelfRegisteredWorkers(t *testing.T) {
	p := testPlan()
	ref := reference(t, p)

	w1 := httptest.NewServer(NewWorker(2).Handler())
	defer w1.Close()
	w2 := httptest.NewServer(NewWorker(2).Handler())
	defer w2.Close()

	r := NewRegistry(time.Minute)
	r.Register("w1", w1.URL, 0)
	r.Register("w2", w2.URL, 0)

	if s := r.Slots(); s != 0 {
		t.Errorf("Slots before any run = %d, want 0 (unknown)", s)
	}
	c := New(Options{Dialer: r, Shards: 2, ChunkPoints: 2})
	outs, err := collect(context.Background(), c, p)
	if err != nil {
		t.Fatalf("sweep over registry: %v", err)
	}
	requireIdentical(t, "registry", ref, outs)

	// Both workers answered runs, which report their slots.
	if s := r.Slots(); s != 2 {
		t.Errorf("Slots after the sweep = %d, want the workers' 2", s)
	}
	// A worker that has not answered yet makes the pool's slots unknown.
	r.Register("w3", "http://127.0.0.1:1", 0)
	if s := r.Slots(); s != 0 {
		t.Errorf("Slots with an unanswered worker = %d, want 0", s)
	}
}

// TestRegistryEvictsDeadWorker kills one of two registered workers before the
// sweep: its sessions fail, the registry must evict it (so retries land on
// the survivor), and the sweep still reassembles bit-identically — the
// service-level "dead workers drain back into the queue" path.
func TestRegistryEvictsDeadWorker(t *testing.T) {
	p := testPlan()
	ref := reference(t, p)

	alive := httptest.NewServer(NewWorker(2).Handler())
	defer alive.Close()
	dead := httptest.NewServer(NewWorker(2).Handler())
	dead.Close() // SIGKILL stand-in: registered but connection-refused

	r := NewRegistry(time.Minute)
	r.Register("alive", alive.URL, 0)
	r.Register("dead", dead.URL, 0)

	c := New(Options{Dialer: r, Shards: 2, ChunkPoints: 2})
	outs, err := collect(context.Background(), c, p)
	if err != nil {
		t.Fatalf("sweep with a dead registered worker: %v", err)
	}
	requireIdentical(t, "evict", ref, outs)
	live := r.Live()
	if len(live) != 1 || live[0].ID != "alive" {
		t.Errorf("live=%v after the sweep; the dead worker was never evicted", live)
	}
}
