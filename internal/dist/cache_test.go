package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

func (d *countingDialer) Slots() int { return dialerSlots(d.inner) }

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

// unwindDialer's sessions fail every piece but the one holding index 0,
// and only once that piece is running; it then waits for the stream to
// unwind and completes anyway, ignoring the cancel.
type unwindDialer struct {
	inner   Dialer
	running chan struct{} // closed when the index-0 piece starts
}

func (d *unwindDialer) Slots() int { return dialerSlots(d.inner) }

func (d *unwindDialer) Dial(ctx context.Context) (Session, error) {
	s, err := d.inner.Dial(ctx)
	if err != nil {
		return nil, err
	}
	return unwindSession{d, s}, nil
}

type unwindSession struct {
	d *unwindDialer
	s Session
}

func (u unwindSession) Run(ctx context.Context, a Assignment, emit func(engine.RunOutcome) error) error {
	if a.Indices[0] != 0 {
		<-u.d.running
		return errors.New("worker lost")
	}
	close(u.d.running)
	<-ctx.Done()
	return u.s.Run(context.Background(), a, emit)
}

func (u unwindSession) Close() error { return u.s.Close() }

// TestPieceLandingDuringUnwindIsCached: a piece that completes after its
// sweep failed still writes its results to the shared cache, so a later
// overlapping sweep does not simulate them again.
func TestPieceLandingDuringUnwindIsCached(t *testing.T) {
	p := testPlan()
	ref := reference(t, p)
	cache := new(engine.ResultCache)
	c := New(Options{Dialer: &unwindDialer{inner: Loopback{Workers: 3}, running: make(chan struct{})}, Shards: 2, ChunkPoints: 6, Cache: cache})
	if _, err := collect(context.Background(), c, p); err == nil {
		t.Fatal("sweep succeeded; want the lost piece's error")
	}
	i := 0
	for _, job := range p.Jobs() {
		_, key, err := engine.ResolveJob(job, 0)
		if err != nil {
			t.Fatalf("resolve point %d: %v", i, err)
		}
		res, ok := cache.Get(key)
		switch {
		case i < 3 && !ok:
			t.Errorf("point %d: finished during the unwind but not cached", i)
		case i < 3 && resultChecksum(res) != resultChecksum(ref[i].Result):
			t.Errorf("point %d: cached result differs from the reference", i)
		case i >= 3 && ok:
			t.Errorf("point %d: cached, but its piece never ran", i)
		}
		i++
	}
}

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
	outs, err := collect(context.Background(), c1, p)
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
	again, err := collect(context.Background(), c2, p)
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
// 6 points must ship exactly the 2 new points — as sparse pieces mixing hits
// and misses inside one range, over the JSON wire form (the loopback proves
// the Indices table round-trips) — and still match its own single-process
// reference bit-identically.
func TestCacheServesOverlapSparsely(t *testing.T) {
	pA, pB := testPlan(), overlapPlan()
	refB := reference(t, pB)
	// Enumeration is config-fastest, so with ChunkPoints=3 range [0,3) =
	// gcc{base,golden,fdp30k} and range [3,6) = deltablue{base,golden,fdp30k}
	// — 2 hits + 1 miss apiece, one single-job piece each. With ChunkPoints=6
	// one range holds both misses, cut into two single-job pieces for the two
	// shards: the second sweep's workers run one simulation at a time, so a
	// single-job piece fills one.
	for _, chunk := range []int{3, 6} {
		cache := new(engine.ResultCache)
		warm := New(Options{Dialer: Loopback{Workers: 2}, Shards: 2, ChunkPoints: 2, Cache: cache})
		if _, err := collect(context.Background(), warm, pA); err != nil {
			t.Fatalf("chunk=%d: warm sweep: %v", chunk, err)
		}

		second := &countingDialer{inner: Loopback{Workers: 1}}
		c := New(Options{Dialer: second, Shards: 2, ChunkPoints: chunk, Cache: cache})
		outs, err := collect(context.Background(), c, pB)
		if err != nil {
			t.Fatalf("chunk=%d: overlap sweep: %v", chunk, err)
		}
		requireIdentical(t, fmt.Sprintf("overlap chunk=%d", chunk), refB, outs)

		jobs, runs := second.shipped()
		if jobs != 2 {
			t.Errorf("chunk=%d: overlap sweep shipped %d jobs, want exactly the 2 uncached points", chunk, jobs)
		}
		if runs != 2 {
			t.Errorf("chunk=%d: overlap sweep shipped %d pieces, want 2 sparse ones", chunk, runs)
		}
		for i, out := range outs {
			wantCached := out.Job.Name == "gcc/base" || out.Job.Name == "gcc/golden" ||
				out.Job.Name == "deltablue/base" || out.Job.Name == "deltablue/golden"
			if out.Cached != wantCached {
				t.Errorf("chunk=%d: point %d (%s): Cached=%v, want %v", chunk, i, out.Job.Name, out.Cached, wantCached)
			}
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
	if _, err := collect(context.Background(), c1, p); err != nil {
		t.Fatalf("journaled sweep: %v", err)
	}

	// Run 2: same journal, cold cache, dead dialer. Replay must both deliver
	// the outcomes and prime the cache.
	cache := new(engine.ResultCache)
	c2 := New(Options{Dialer: deadDialer{}, Shards: 1, ChunkPoints: 2, Journal: journal, Cache: cache})
	outs, err := collect(context.Background(), c2, p)
	if err != nil {
		t.Fatalf("replay sweep: %v", err)
	}
	requireIdentical(t, "replay", ref, outs)
	if cache.Len() != p.Points() {
		t.Errorf("replay primed %d cache entries, want %d", cache.Len(), p.Points())
	}

	// Run 3: the primed cache alone (no journal) serves the whole plan.
	c3 := New(Options{Dialer: deadDialer{}, Shards: 1, ChunkPoints: 2, Cache: cache})
	again, err := collect(context.Background(), c3, p)
	if err != nil {
		t.Fatalf("cache-only sweep: %v", err)
	}
	requireIdentical(t, "cache-only", ref, again)
}

// quiesceGate lands a quiesce while a range's pieces are in flight: the
// sweep's first worker run goes through, every later run waits for the
// quiesce, and the first run of range gateStart closes started (the test
// then quiesces). So range 0 cannot finish, and range gateStart's second
// piece cannot leave, before the quiesce.
type quiesceGate struct {
	inner     Dialer
	gateStart int
	quiesce   <-chan struct{}
	started   chan struct{}

	mu   sync.Mutex
	runs int
}

func (g *quiesceGate) Slots() int { return dialerSlots(g.inner) }

func (g *quiesceGate) Dial(ctx context.Context) (Session, error) {
	s, err := g.inner.Dial(ctx)
	if err != nil {
		return nil, err
	}
	return &gatedSession{g: g, s: s}, nil
}

type gatedSession struct {
	g *quiesceGate
	s Session
}

func (gs *gatedSession) Run(ctx context.Context, a Assignment, emit func(engine.RunOutcome) error) error {
	g := gs.g
	g.mu.Lock()
	g.runs++
	first := g.runs == 1
	if a.Start == g.gateStart && g.started != nil {
		close(g.started)
		g.started = nil
	}
	g.mu.Unlock()
	if !first {
		select {
		case <-g.quiesce:
		case <-time.After(10 * time.Second):
			return errors.New("quiesce never landed")
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return gs.s.Run(ctx, a, emit)
}

func (gs *gatedSession) Close() error { return gs.s.Close() }

// TestQuiesceDrainsAndResumes is the graceful-shutdown proof: a quiesce that
// lands while a range's pieces are in flight stops dispatch of new ranges,
// yet that range is still dispatched whole, completes, journals as one
// record and yields; the stream ends with ErrQuiesced — and a fresh
// coordinator over the same journal finishes the sweep executing only what
// was never dispatched.
func TestQuiesceDrainsAndResumes(t *testing.T) {
	p := testPlan()
	ref := reference(t, p)
	journal := filepath.Join(t.TempDir(), "sweep.journal")
	quiesce := make(chan struct{})
	started := make(chan struct{})
	go func() {
		<-started // range 2's first piece is running
		close(quiesce)
	}()

	// Single-slot workers, so each two-point range leaves as two pieces.
	run1 := newChaosDialer(Loopback{Workers: 1}, 0)
	gate := &quiesceGate{inner: run1, gateStart: 2, quiesce: quiesce, started: started}
	c1 := New(Options{Dialer: gate, Shards: 2, ChunkPoints: 2, Journal: journal, Quiesce: quiesce})
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
	}
	if !errors.Is(terminal, ErrQuiesced) {
		t.Fatalf("run 1 terminal = %v, want ErrQuiesced", terminal)
	}
	// Ranges 0 and 2 were started before the quiesce; range 4 never was.
	if len(delivered) != 4 || !delivered[0] || !delivered[1] || !delivered[2] || !delivered[3] {
		t.Fatalf("run 1 delivered %v; want exactly points 0-3 (ranges 0 and 2, whole)", delivered)
	}
	j, completed, err := OpenJournal(journal, c1.fingerprint(p), p.Points(), 2)
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	j.Close()
	if len(completed) != 2 || len(completed[0]) != 2 || len(completed[2]) != 2 {
		t.Fatalf("journal after the drain holds %d ranges (%d + %d outcomes); want ranges 0 and 2, whole", len(completed), len(completed[0]), len(completed[2]))
	}

	// Resume: a fresh coordinator executes exactly the never-dispatched range.
	run2 := newChaosDialer(Loopback{Workers: 1}, 0)
	c2 := New(Options{Dialer: run2, Shards: 2, ChunkPoints: 2, Journal: journal})
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
	executed := run2.executedStarts()
	for _, start := range executed {
		if start != 4 {
			t.Errorf("resume executed a piece of range %d, which run 1 drained and journaled", start)
		}
	}
	if len(executed) != 2 {
		t.Errorf("resume ran %d pieces, want range 4's 2", len(executed))
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
		if _, err := collect(context.Background(), c, tc.plan); err != nil {
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

// TestNoDialerServesJournalAndCache: a coordinator without a dialer serves
// only what its journal and its cache hold. Over a finished sweep's journal
// it yields every row in range order; with one range record gone it serves
// that range from a warm cache, and with a cold cache it yields the rows
// before that range, primes the cache from the whole journal, and ends
// naming the range it could not serve. It leaves no goroutine behind either
// way.
func TestNoDialerServesJournalAndCache(t *testing.T) {
	p := testPlan()
	journal := filepath.Join(t.TempDir(), "sweep.journal")
	warm := new(engine.ResultCache)
	first, err := collect(context.Background(), New(Options{Dialer: Loopback{Workers: 2}, Shards: 2, ChunkPoints: 2, Journal: journal, Cache: warm}), p)
	if err != nil {
		t.Fatalf("first sweep: %v", err)
	}

	// stream runs a no-dialer coordinator over the journal and cache, and
	// returns what it yields in order, its terminal error, and whether the
	// goroutine count came back to where it started.
	stream := func(cache *engine.ResultCache) (outs []engine.RunOutcome, terminal error, reaped bool) {
		before := runtime.NumGoroutine()
		for out, err := range New(Options{Shards: 2, ChunkPoints: 2, Journal: journal, Cache: cache}).Stream(context.Background(), p) {
			if err != nil {
				terminal = err
				continue
			}
			outs = append(outs, out)
		}
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if runtime.NumGoroutine() <= before {
				return outs, terminal, true
			}
		}
		return outs, terminal, false
	}

	outs, terminal, reaped := stream(new(engine.ResultCache))
	if terminal != nil {
		t.Fatalf("replay of a finished sweep: %v", terminal)
	}
	requireSameWire(t, "replay", outs, first)
	if !reaped {
		t.Error("replay left goroutines behind")
	}

	// Drop range 2's record. The rewritten journal is restored before each
	// case: a cache-served range is noted back into it.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	var partial []byte
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		var rec journalRecord
		if json.Unmarshal(line, &rec) == nil && rec.Type == "range" && rec.Start == 2 {
			continue
		}
		partial = append(partial, line...)
	}
	if len(partial) == len(data) {
		t.Fatal("journal holds no record of range 2")
	}

	// Warm cache: range 2 is served from it, after the journaled ranges.
	if err := os.WriteFile(journal, partial, 0o644); err != nil {
		t.Fatal(err)
	}
	outs, terminal, reaped = stream(warm)
	if terminal != nil {
		t.Fatalf("warm-cache replay: %v", terminal)
	}
	if !reaped {
		t.Error("warm-cache replay left goroutines behind")
	}
	byIndex := make([]engine.RunOutcome, p.Points())
	for _, out := range outs {
		byIndex[out.Index] = out
		if want := out.Index == 2 || out.Index == 3; out.Cached != want {
			t.Errorf("warm-cache replay: point %d Cached=%v, want %v", out.Index, out.Cached, want)
		}
	}
	requireIdentical(t, "warm-cache replay", first, byIndex)

	// Cold cache: range 2 needs a worker, so the stream ends naming it,
	// after the rows before it exactly once.
	if err := os.WriteFile(journal, partial, 0o644); err != nil {
		t.Fatal(err)
	}
	cold := new(engine.ResultCache)
	outs, terminal, reaped = stream(cold)
	if terminal == nil || !strings.Contains(terminal.Error(), "range 2 ") {
		t.Errorf("cold-cache replay ended with %v, want an error naming range 2", terminal)
	}
	if !reaped {
		t.Error("cold-cache replay left goroutines behind")
	}
	var yielded []int
	for _, out := range outs {
		yielded = append(yielded, out.Index)
	}
	if !slices.Equal(yielded, []int{0, 1}) {
		t.Errorf("cold-cache replay yielded points %v, want [0 1]: the range before range 2", yielded)
	}
	if cold.Len() != p.Points()-2 {
		t.Errorf("cold-cache replay primed %d cache entries, want the journal's %d", cold.Len(), p.Points()-2)
	}
}
