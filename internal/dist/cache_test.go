package dist

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"fdip/internal/core"
	"fdip/internal/durable"
	"fdip/internal/engine"
)

// countingDialer tallies how many jobs actually ship to workers — the
// simulation-count accounting that proves cache hits never re-execute.
type countingDialer struct {
	inner Dialer
	mu    sync.Mutex
	jobs  int
	runs  int
}

func (d *countingDialer) Dial(ctx context.Context) (Session, error) {
	s, err := d.inner.Dial(ctx)
	if err != nil {
		return nil, err
	}
	return &countingSession{d: d, s: s}, nil
}

func (d *countingDialer) shipped() (jobs, runs int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.jobs, d.runs
}

type countingSession struct {
	d *countingDialer
	s Session
}

func (cs *countingSession) Run(ctx context.Context, a Assignment, emit func(engine.RunOutcome) error) error {
	cs.d.mu.Lock()
	cs.d.jobs += len(a.Jobs)
	cs.d.runs++
	cs.d.mu.Unlock()
	return cs.s.Run(ctx, a, emit)
}

func (cs *countingSession) Close() error { return cs.s.Close() }

// overlapPlan shares 4 of its 6 points with testPlan (base and golden
// configs) and introduces 2 new ones (an FDP variant testPlan doesn't run).
func overlapPlan() *engine.Plan {
	mkBase := func(kind core.PrefetcherKind) core.Config {
		c := core.DefaultConfig()
		c.MaxInstrs = 30_000
		c.Prefetch.Kind = kind
		return c
	}
	fresh := mkBase(core.PrefetchFDP)
	return engine.NewPlan(core.DefaultConfig()).
		OverNames("gcc", "deltablue").
		Axes(engine.Configs(
			engine.Named("base", mkBase(core.PrefetchNone)),
			engine.Named("golden", goldenCfg()),
			engine.Named("fdp30k", fresh),
		))
}

// TestCacheFullyServesRepeatSweep: after one cached sweep, re-running the
// identical plan must complete from cache alone — proven by handing the
// second run a dialer that cannot ever produce a session. Cached outcomes are
// re-tagged (Cached=true, timings zeroed) but bit-identical in Result.
func TestCacheFullyServesRepeatSweep(t *testing.T) {
	p := testPlan()
	ref := reference(t, p)
	cache := new(engine.ResultCache)

	first := &countingDialer{inner: Loopback{Workers: 2}}
	c1 := New(Options{Dialer: first, Shards: 2, ChunkPoints: 2, Cache: cache})
	outs, err := c1.Sweep(context.Background(), p)
	if err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	requireIdentical(t, "first", ref, outs)
	if jobs, _ := first.shipped(); jobs != p.Points() {
		t.Fatalf("first sweep shipped %d jobs, want all %d", jobs, p.Points())
	}
	if cache.Len() != p.Points() {
		t.Fatalf("first sweep cached %d results, want %d", cache.Len(), p.Points())
	}

	// Second run: zero live workers. Every range is fully cached, so the
	// coordinator must never dial.
	c2 := New(Options{Dialer: deadDialer{}, Shards: 2, ChunkPoints: 2, Cache: cache})
	again, err := c2.Sweep(context.Background(), p)
	if err != nil {
		t.Fatalf("repeat sweep over a dead dialer: %v", err)
	}
	requireIdentical(t, "repeat", ref, again)
	for i, out := range again {
		if !out.Cached {
			t.Errorf("repeat point %d not marked Cached", i)
		}
		if out.Elapsed != 0 || out.CyclesPerSec != 0 {
			t.Errorf("repeat point %d kept stale timings (%v, %v)", i, out.Elapsed, out.CyclesPerSec)
		}
	}
}

// TestCacheServesOverlapSparsely: a second plan overlapping the first on 4 of
// 6 points must ship exactly the 2 new points — as sparse assignments mixing
// hits and misses inside one range, over the JSON wire form (the loopback
// proves the Indices table round-trips) — and still match its own
// single-process reference bit-identically.
func TestCacheServesOverlapSparsely(t *testing.T) {
	pA, pB := testPlan(), overlapPlan()
	refB := reference(t, pB)
	cache := new(engine.ResultCache)

	warm := New(Options{Dialer: Loopback{Workers: 2}, Shards: 2, ChunkPoints: 2, Cache: cache})
	if _, err := warm.Sweep(context.Background(), pA); err != nil {
		t.Fatalf("warm sweep: %v", err)
	}

	second := &countingDialer{inner: Loopback{Workers: 2}}
	// ChunkPoints=3 makes each range straddle hits and misses: enumeration is
	// config-fastest, so range [0,3) = gcc{base,golden,fdp30k} and range
	// [3,6) = deltablue{base,golden,fdp30k} — 2 hits + 1 miss apiece.
	c := New(Options{Dialer: second, Shards: 2, ChunkPoints: 3, Cache: cache})
	outs, err := c.Sweep(context.Background(), pB)
	if err != nil {
		t.Fatalf("overlap sweep: %v", err)
	}
	requireIdentical(t, "overlap", refB, outs)

	jobs, runs := second.shipped()
	if jobs != 2 {
		t.Errorf("overlap sweep shipped %d jobs, want exactly the 2 uncached points", jobs)
	}
	if runs != 2 {
		t.Errorf("overlap sweep shipped %d assignments, want 2 sparse ones", runs)
	}
	for i, out := range outs {
		wantCached := out.Job.Name == "gcc/base" || out.Job.Name == "gcc/golden" ||
			out.Job.Name == "deltablue/base" || out.Job.Name == "deltablue/golden"
		if out.Cached != wantCached {
			t.Errorf("point %d (%s): Cached=%v, want %v", i, out.Job.Name, out.Cached, wantCached)
		}
	}
}

// TestJournalReplayPrimesCache: a journal from a finished sweep must re-warm
// a cold cache on open, so a restarted service serves overlapping submissions
// from disk history without re-execution.
func TestJournalReplayPrimesCache(t *testing.T) {
	p := testPlan()
	ref := reference(t, p)
	journal := filepath.Join(t.TempDir(), "sweep.journal")

	// Run 1: journaled, no cache.
	c1 := New(Options{Dialer: Loopback{Workers: 2}, Shards: 1, ChunkPoints: 2, Journal: journal})
	if _, err := c1.Sweep(context.Background(), p); err != nil {
		t.Fatalf("journaled sweep: %v", err)
	}

	// Run 2: same journal, cold cache, dead dialer. Replay must both deliver
	// the outcomes and prime the cache.
	cache := new(engine.ResultCache)
	c2 := New(Options{Dialer: deadDialer{}, Shards: 1, ChunkPoints: 2, Journal: journal, Cache: cache})
	outs, err := c2.Sweep(context.Background(), p)
	if err != nil {
		t.Fatalf("replay sweep: %v", err)
	}
	requireIdentical(t, "replay", ref, outs)
	if cache.Len() != p.Points() {
		t.Errorf("replay primed %d cache entries, want %d", cache.Len(), p.Points())
	}

	// Run 3: the primed cache alone (no journal) serves the whole plan.
	c3 := New(Options{Dialer: deadDialer{}, Shards: 1, ChunkPoints: 2, Cache: cache})
	again, err := c3.Sweep(context.Background(), p)
	if err != nil {
		t.Fatalf("cache-only sweep: %v", err)
	}
	requireIdentical(t, "cache-only", ref, again)
}

// TestQuiesceDrainsAndResumes is the graceful-shutdown proof: quiescing
// mid-sweep stops dispatch, completes + journals in-flight ranges, ends with
// ErrQuiesced — and a fresh coordinator over the same journal finishes the
// sweep executing only what was never dispatched.
func TestQuiesceDrainsAndResumes(t *testing.T) {
	p := testPlan()
	ref := reference(t, p)
	journal := filepath.Join(t.TempDir(), "sweep.journal")
	quiesce := make(chan struct{})

	run1 := newChaosDialer(Loopback{Workers: 2}, 0)
	c1 := New(Options{Dialer: run1, Shards: 1, ChunkPoints: 2, Journal: journal, Quiesce: quiesce})
	var terminal error
	delivered := make(map[int]bool)
	for out, err := range c1.Stream(context.Background(), p) {
		if err != nil {
			terminal = err
			continue
		}
		if out.Err != nil {
			t.Fatalf("run 1 point %d: %v", out.Index, out.Err)
		}
		delivered[out.Index] = true
		if len(delivered) == 2 {
			close(quiesce) // after the first full range: drain now
		}
	}
	if !errors.Is(terminal, ErrQuiesced) {
		t.Fatalf("run 1 terminal = %v, want ErrQuiesced", terminal)
	}
	if len(delivered)%2 != 0 || len(delivered) == 0 || len(delivered) == p.Points() {
		t.Fatalf("run 1 delivered %d points; want whole ranges, some but not all", len(delivered))
	}

	// Resume: a fresh coordinator executes exactly the never-dispatched ranges.
	run2 := newChaosDialer(Loopback{Workers: 2}, 0)
	c2 := New(Options{Dialer: run2, Shards: 1, ChunkPoints: 2, Journal: journal})
	outs := make([]engine.RunOutcome, p.Points())
	seen := make([]bool, p.Points())
	for out, err := range c2.Stream(context.Background(), p) {
		if err != nil || out.Err != nil {
			t.Fatalf("resume: %v / %v", err, out.Err)
		}
		if seen[out.Index] {
			t.Fatalf("resume delivered point %d twice", out.Index)
		}
		seen[out.Index] = true
		outs[out.Index] = out
	}
	requireIdentical(t, "quiesce-resume", ref, outs)
	for _, start := range run2.executedStarts() {
		if delivered[start] {
			t.Errorf("resume re-executed range %d, which run 1 drained and journaled", start)
		}
	}
	wantExec := (p.Points()+1)/2 - len(delivered)/2
	if got := len(run2.executedStarts()); got != wantExec {
		t.Errorf("resume executed %d ranges, want %d", got, wantExec)
	}
}

// countSyncs routes durable.Sync through a counter for the rest of the test.
func countSyncs(t *testing.T) *atomic.Int64 {
	n := new(atomic.Int64)
	flush := durable.Sync
	durable.Sync = func(f *os.File) error {
		n.Add(1)
		return flush(f)
	}
	t.Cleanup(func() { durable.Sync = flush })
	return n
}

// TestJournalSyncsOnlyExecutedRanges pins the journal's durability rule: a
// range a worker ran is fsynced, a range served wholly from the cache is
// written but not fsynced, and neither the header nor a cache hit inside an
// executed range adds a flush.
func TestJournalSyncsOnlyExecutedRanges(t *testing.T) {
	syncs := countSyncs(t)
	cache := new(engine.ResultCache)
	dir := t.TempDir()
	for _, tc := range []struct {
		name   string
		plan   *engine.Plan
		dialer Dialer
		chunk  int
		ranges int
		syncs  int64
	}{
		{"cold", testPlan(), Loopback{Workers: 2}, 2, 3, 3},
		{"repeat", testPlan(), deadDialer{}, 2, 3, 0},
		// Every range holds two hits and one miss: each ships, so each syncs.
		{"overlap", overlapPlan(), Loopback{Workers: 2}, 3, 2, 2},
	} {
		journal := filepath.Join(dir, tc.name+".journal")
		before := syncs.Load()
		c := New(Options{Dialer: tc.dialer, Shards: 2, ChunkPoints: tc.chunk, Journal: journal, Cache: cache})
		if _, err := c.Sweep(context.Background(), tc.plan); err != nil {
			t.Fatalf("%s sweep: %v", tc.name, err)
		}
		if got := syncs.Load() - before; got != tc.syncs {
			t.Errorf("%s sweep made %d fsyncs, want %d", tc.name, got, tc.syncs)
		}
		// Synced or not, every range is in the journal.
		j, completed, err := OpenJournal(journal, c.fingerprint(tc.plan), tc.plan.Points(), tc.chunk)
		if err != nil {
			t.Fatalf("%s: reopen journal: %v", tc.name, err)
		}
		j.Close()
		if len(completed) != tc.ranges {
			t.Errorf("%s journal holds %d ranges, want %d", tc.name, len(completed), tc.ranges)
		}
	}
}
