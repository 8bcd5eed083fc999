package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fdip/internal/core"
	"fdip/internal/engine"
	"fdip/internal/prefetch"
	"fdip/internal/workloads"
)

// goldenChecksum mirrors internal/engine's pinned constant: the FNV-64a
// digest of the golden point's Result. The distributed merge must reproduce
// it bit-identically at every shard count — the package's non-negotiable
// proof obligation.
const goldenChecksum = 0x47bbeda2da5f243e

func goldenCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.MaxInstrs = 150_000
	cfg.Prefetch.Kind = core.PrefetchFDP
	cfg.Prefetch.FDP.CPF = prefetch.CPFConservative
	return cfg
}

// testPlan is 2 workloads x 3 configs = 6 points with per-config budgets
// baked in. Index 1 (gcc x golden) is exactly the engine's pinned golden
// triple.
func testPlan() *engine.Plan {
	gcc, _ := workloads.ByName("gcc")
	return testPlanOf(gcc, goldenCfg())
}

// testPlanOf is testPlan's shape and labels over first and deltablue, with
// golden as the "golden" column's config.
func testPlanOf(first workloads.Workload, golden core.Config) *engine.Plan {
	mk := func(kind core.PrefetcherKind) core.Config {
		c := core.DefaultConfig()
		c.MaxInstrs = 30_000
		c.Prefetch.Kind = kind
		return c
	}
	deltablue, _ := workloads.ByName("deltablue")
	return engine.NewPlan(core.DefaultConfig()).
		Over(first, deltablue).
		Axes(engine.Configs(
			engine.Named("base", mk(core.PrefetchNone)),
			engine.Named("golden", golden),
			engine.Named("nextline", mk(core.PrefetchNextLine)),
		))
}

func resultChecksum(res core.Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", res)
	return h.Sum64()
}

// reference runs the plan through the in-process engine — the single-process
// truth every sharded run must reproduce.
func reference(t *testing.T, p *engine.Plan) []engine.RunOutcome {
	t.Helper()
	outs := make([]engine.RunOutcome, p.Points())
	for out, err := range engine.New(engine.WithWorkers(4)).Stream(context.Background(), p) {
		if err != nil || out.Err != nil {
			t.Fatalf("reference stream: %v / %v", err, out.Err)
		}
		outs[out.Index] = out
	}
	return outs
}

// requireIdentical asserts the sharded outcomes reproduce the reference
// bit-identically (names, results, and the pinned golden point).
func requireIdentical(t *testing.T, label string, ref, got []engine.RunOutcome) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: %d outcomes, want %d", label, len(got), len(ref))
	}
	for i := range ref {
		if got[i].Err != nil {
			t.Fatalf("%s: point %d (%s): %v", label, i, got[i].Job.Name, got[i].Err)
		}
		if got[i].Job.Name != ref[i].Job.Name {
			t.Errorf("%s: point %d named %q, want %q", label, i, got[i].Job.Name, ref[i].Job.Name)
		}
		if a, b := resultChecksum(got[i].Result), resultChecksum(ref[i].Result); a != b {
			t.Errorf("%s: point %d (%s): checksum %#x != single-process %#x", label, i, got[i].Job.Name, a, b)
		}
	}
	if got := resultChecksum(got[1].Result); got != goldenChecksum {
		t.Errorf("%s: golden point checksum %#x, want pinned %#x", label, got, goldenChecksum)
	}
}

// TestShardedMergeMatchesSingleProcess is the tentpole proof: the plan
// sharded N ways over wire-round-tripped loopback workers reassembles
// bit-identically to the single-process stream, N in {1, 2, 8}, including
// the engine's pinned golden checksum.
func TestShardedMergeMatchesSingleProcess(t *testing.T) {
	p := testPlan()
	ref := reference(t, p)
	for _, shards := range []int{1, 2, 8} {
		c := New(Options{
			Dialer:      Loopback{Workers: 2},
			Shards:      shards,
			ChunkPoints: 2,
		})
		outs, err := collect(context.Background(), c, p)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		requireIdentical(t, fmt.Sprintf("shards=%d", shards), ref, outs)
	}
}

var errKilled = errors.New("worker killed (injected)")

// chaosDialer wraps an inner dialer for fault-injection and bookkeeping: it
// counts dials, records every executed range start in order, and kills the
// first `kills` attempts of each range mid-stream (one outcome delivered,
// then a crash-like error — the partial-range case retry must handle without
// duplicating deliveries).
type chaosDialer struct {
	inner Dialer
	kills int

	mu       sync.Mutex
	dials    int
	executed []int
	attempts map[int]int
}

func newChaosDialer(inner Dialer, kills int) *chaosDialer {
	return &chaosDialer{inner: inner, kills: kills, attempts: make(map[int]int)}
}

func (d *chaosDialer) Slots() int { return dialerSlots(d.inner) }

func (d *chaosDialer) Dial(ctx context.Context) (Session, error) {
	d.mu.Lock()
	d.dials++
	d.mu.Unlock()
	s, err := d.inner.Dial(ctx)
	if err != nil {
		return nil, err
	}
	return &chaosSession{d: d, s: s}, nil
}

func (d *chaosDialer) executedStarts() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]int(nil), d.executed...)
}

type chaosSession struct {
	d *chaosDialer
	s Session
}

func (cs *chaosSession) Run(ctx context.Context, a Assignment, emit func(engine.RunOutcome) error) error {
	cs.d.mu.Lock()
	cs.d.executed = append(cs.d.executed, a.Start)
	cs.d.attempts[a.Start]++
	kill := cs.d.attempts[a.Start] <= cs.d.kills
	cs.d.mu.Unlock()
	if !kill {
		return cs.s.Run(ctx, a, emit)
	}
	// Die mid-range: one outcome escapes, then the "process" crashes. (If
	// the range has a single point, the crash lands between the last
	// outcome and the done terminator — equally fatal on a real wire.)
	n := 0
	cs.s.Run(ctx, a, func(out engine.RunOutcome) error {
		if n == 0 {
			n++
			return emit(out)
		}
		return errKilled
	})
	return errKilled
}

func (cs *chaosSession) Close() error { return cs.s.Close() }

// TestShardedMergeSurvivesWorkerKills kills every range's first worker
// mid-stream; the coordinator must redial, reassign, and still reassemble
// the single-process stream bit-identically — no lost points, no duplicated
// deliveries from the partially-streamed first attempts.
func TestShardedMergeSurvivesWorkerKills(t *testing.T) {
	p := testPlan()
	ref := reference(t, p)
	chaos := newChaosDialer(Loopback{Workers: 2}, 1)
	c := New(Options{Dialer: chaos, Shards: 2, ChunkPoints: 2})
	outs, err := collect(context.Background(), c, p)
	if err != nil {
		t.Fatalf("sweep under kills: %v", err)
	}
	requireIdentical(t, "kills=1", ref, outs)
	ranges := (p.Points() + 1) / 2
	if got := len(chaos.executedStarts()); got < 2*ranges {
		t.Errorf("%d range executions for %d ranges; kill injection never forced retries", got, ranges)
	}
	chaos.mu.Lock()
	dials := chaos.dials
	chaos.mu.Unlock()
	if dials <= 2 {
		t.Errorf("%d dials for 2 shards under kills; dead workers were not replaced by fresh sessions", dials)
	}
}

// TestKillAndResumeReproducesGolden is the coordinator-restart proof: run 1
// is killed (consumer abandons the stream) partway through a journaled sweep
// whose workers are ALSO being killed; run 2 — a fresh coordinator on the
// same journal — must replay the completed ranges from disk, execute only
// the rest, and hand a collector the complete, bit-identical point set
// including the pinned golden checksum.
func TestKillAndResumeReproducesGolden(t *testing.T) {
	p := testPlan()
	ref := reference(t, p)
	journal := filepath.Join(t.TempDir(), "sweep.journal")
	opts := func(d Dialer) Options {
		return Options{Dialer: d, Shards: 1, ChunkPoints: 2, Journal: journal}
	}

	// Run 1: worker kills on every range's first attempt, coordinator
	// "crashes" (breaks) after consuming 4 outcomes = 2 committed ranges.
	run1 := newChaosDialer(Loopback{Workers: 2}, 1)
	consumed := 0
	for out, err := range New(opts(run1)).Stream(context.Background(), p) {
		if err != nil || out.Err != nil {
			t.Fatalf("run 1: %v / %v", err, out.Err)
		}
		consumed++
		if consumed == 4 {
			break
		}
	}

	// Run 2: a fresh coordinator over the same journal completes the sweep.
	run2 := newChaosDialer(Loopback{Workers: 2}, 0)
	outs := make([]engine.RunOutcome, p.Points())
	seen := make([]bool, p.Points())
	for out, err := range New(opts(run2)).Stream(context.Background(), p) {
		if err != nil || out.Err != nil {
			t.Fatalf("run 2: %v / %v", err, out.Err)
		}
		if seen[out.Index] {
			t.Fatalf("run 2: point %d delivered twice (journal replay + re-execution)", out.Index)
		}
		seen[out.Index] = true
		outs[out.Index] = out
	}
	requireIdentical(t, "resumed", ref, outs)

	// With Shards=1 and the break on a range boundary, exactly ranges 0 and
	// 2 were committed before the crash; resume must execute only range 4.
	if got := run2.executedStarts(); len(got) != 1 || got[0] != 4 {
		t.Errorf("resume executed ranges %v; want exactly [4] (journaled ranges 0 and 2 must replay, not re-run)", got)
	}
}

// TestRangeOutOfRetriesIsTerminal pins the failure mode: a dialer that never
// produces a working session must end the stream with one terminal error
// (not a hang, not silence).
func TestRangeOutOfRetriesIsTerminal(t *testing.T) {
	c := New(Options{Dialer: deadDialer{}, Shards: 2, ChunkPoints: 2})
	var terminal error
	n := 0
	for _, err := range c.Stream(context.Background(), testPlan()) {
		if err != nil {
			terminal = err
		} else {
			n++
		}
	}
	if terminal == nil {
		t.Fatal("stream over a dead dialer ended without a terminal error")
	}
	if !errors.Is(terminal, errDead) && !strings.Contains(terminal.Error(), "attempts") {
		t.Errorf("terminal error %v does not report the exhausted retries", terminal)
	}
	if n != 0 {
		t.Errorf("%d outcomes delivered by a dialer that can never run one", n)
	}
}

var errDead = errors.New("no worker available (injected)")

type deadDialer struct{}

func (deadDialer) Dial(ctx context.Context) (Session, error) { return nil, errDead }

// TestStreamEarlyBreakUnwinds: abandoning the merged stream must cancel
// outstanding assignments and return promptly, like engine.Stream.
func TestStreamEarlyBreakUnwinds(t *testing.T) {
	c := New(Options{Dialer: Loopback{Workers: 2}, Shards: 2, ChunkPoints: 1})
	got := 0
	for out, err := range c.Stream(context.Background(), testPlan()) {
		if err != nil || out.Err != nil {
			t.Fatalf("first delivery: %v / %v", err, out.Err)
		}
		got++
		break
	}
	if got != 1 {
		t.Fatalf("delivered %d before break", got)
	}
}

// rendezvousDialer hands out sessions whose Run blocks until two sessions
// are running at once (or a bounded wait passes), and records how many jobs
// each session ran.
type rendezvousDialer struct {
	inner Dialer
	both  chan struct{} // closed once two sessions run at once
	once  sync.Once

	mu       sync.Mutex
	running  int
	sessions []*rendezvousSession
}

func newRendezvousDialer(inner Dialer) *rendezvousDialer {
	return &rendezvousDialer{inner: inner, both: make(chan struct{})}
}

func (d *rendezvousDialer) Slots() int { return dialerSlots(d.inner) }

func (d *rendezvousDialer) Dial(ctx context.Context) (Session, error) {
	s, err := d.inner.Dial(ctx)
	if err != nil {
		return nil, err
	}
	rs := &rendezvousSession{d: d, s: s}
	d.mu.Lock()
	d.sessions = append(d.sessions, rs)
	d.mu.Unlock()
	return rs, nil
}

type rendezvousSession struct {
	d    *rendezvousDialer
	s    Session
	jobs int
}

func (rs *rendezvousSession) Run(ctx context.Context, a Assignment, emit func(engine.RunOutcome) error) error {
	d := rs.d
	d.mu.Lock()
	rs.jobs += len(a.Jobs)
	if d.running++; d.running == 2 {
		d.once.Do(func() { close(d.both) })
	}
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		d.running--
		d.mu.Unlock()
	}()
	// Bounded: a range that only one session ever runs fails the test's
	// job-count check instead of hanging it.
	select {
	case <-d.both:
	case <-time.After(5 * time.Second):
	case <-ctx.Done():
		return ctx.Err()
	}
	return rs.s.Run(ctx, a, emit)
}

func (rs *rendezvousSession) Close() error { return rs.s.Close() }

// TestRangeSpreadsAcrossShards: one range on two shards is dispatched as two
// pieces that run at once, one per session, and still reassembles into the
// single-process outcomes and one whole journal record in enumeration order.
func TestRangeSpreadsAcrossShards(t *testing.T) {
	p := testPlan()
	ref := reference(t, p)
	journal := filepath.Join(t.TempDir(), "sweep.journal")
	d := newRendezvousDialer(Loopback{Workers: 2})
	c := New(Options{Dialer: d, Shards: 2, ChunkPoints: 6, Journal: journal})
	outs, err := collect(context.Background(), c, p)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	requireIdentical(t, "spread", ref, outs)

	d.mu.Lock()
	var jobs []int
	for _, s := range d.sessions {
		jobs = append(jobs, s.jobs)
	}
	d.mu.Unlock()
	if len(jobs) != 2 || jobs[0] != 3 || jobs[1] != 3 {
		t.Errorf("sessions ran %v jobs; want [3 3] — the range's misses split across both shards", jobs)
	}

	j, completed, err := OpenJournal(journal, c.fingerprint(p), p.Points(), 6)
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	j.Close()
	if len(completed) != 1 || len(completed[0]) != p.Points() {
		t.Fatalf("journal holds %d ranges (range 0: %d outcomes); want one whole range of %d", len(completed), len(completed[0]), p.Points())
	}
	for i, out := range completed[0] {
		if out.Index != i {
			t.Errorf("journal record slot %d holds index %d; want enumeration order", i, out.Index)
		}
	}
}

// TestFailedPieceRetriesAlone: a session that dies mid-piece costs a re-run
// of its own piece only — one range of 6 points on 2 shards ships 3 + 3 jobs
// plus the 3-job retry, never the whole range again.
func TestFailedPieceRetriesAlone(t *testing.T) {
	p := testPlan()
	ref := reference(t, p)
	counter := &countingDialer{inner: newChaosDialer(Loopback{Workers: 2}, 1)}
	c := New(Options{Dialer: counter, Shards: 2, ChunkPoints: 6})
	outs, err := collect(context.Background(), c, p)
	if err != nil {
		t.Fatalf("sweep under a kill: %v", err)
	}
	requireIdentical(t, "piece-retry", ref, outs)
	if jobs, runs := counter.shipped(); jobs != 9 || runs != 3 {
		t.Errorf("sweep shipped %d jobs in %d requests; want 9 in 3 (two pieces, one retried alone)", jobs, runs)
	}
}

// unslotted hides its dialer's slot count.
type unslotted struct{ Dialer }

// TestPiecesFillWorkerSlots: a range is cut into no more pieces than keep
// each one at least a worker's slots wide, so spreading a range across
// shards never leaves a worker's slots idle; a dialer that does not report
// slots gets whole ranges.
func TestPiecesFillWorkerSlots(t *testing.T) {
	p := testPlan()
	ref := reference(t, p)
	for _, tc := range []struct {
		name   string
		dialer Dialer
		pieces int
	}{
		{"1 slot", Loopback{Workers: 1}, 4},
		{"2 slots", Loopback{Workers: 2}, 3},
		{"4 slots", Loopback{Workers: 4}, 1},
		{"unslotted", unslotted{Loopback{Workers: 1}}, 1},
	} {
		counter := &countingDialer{inner: tc.dialer}
		c := New(Options{Dialer: counter, Shards: 4, ChunkPoints: 6})
		outs, err := collect(context.Background(), c, p)
		if err != nil {
			t.Fatalf("%s: sweep: %v", tc.name, err)
		}
		requireIdentical(t, tc.name, ref, outs)
		if jobs, runs := counter.shipped(); jobs != 6 || runs != tc.pieces {
			t.Errorf("%s: one 6-point range on 4 shards shipped %d jobs in %d pieces; want 6 in %d", tc.name, jobs, runs, tc.pieces)
		}
	}
}

// lyingDialer's sessions rewrite every outcome's job — its name, seed and
// config — before the coordinator sees it, as any self-registered process
// could.
type lyingDialer struct{ inner Dialer }

func (d lyingDialer) Slots() int { return dialerSlots(d.inner) }

func (d lyingDialer) Dial(ctx context.Context) (Session, error) {
	s, err := d.inner.Dial(ctx)
	if err != nil {
		return nil, err
	}
	return lyingSession{s}, nil
}

type lyingSession struct{ s Session }

func (ls lyingSession) Run(ctx context.Context, a Assignment, emit func(engine.RunOutcome) error) error {
	return ls.s.Run(ctx, a, func(out engine.RunOutcome) error {
		out.Job.Name = "forged"
		out.Job.Seed = 99
		out.Job.Config.FTQEntries = 1
		return emit(out)
	})
}

func (ls lyingSession) Close() error { return ls.s.Close() }

// TestLyingWorkerCannotRewriteJobs: the coordinator trusts a worker for
// results only. Rows streamed from lying workers — fresh, then replayed from
// the journal they filled — equal the single-process reference byte for byte
// (timings and the cache flag aside), and their results primed the cache
// under the plan's own jobs.
func TestLyingWorkerCannotRewriteJobs(t *testing.T) {
	p := testPlan()
	ref := reference(t, p)
	row := func(out engine.RunOutcome) []byte {
		w := out.Wire()
		w.Cached, w.Elapsed, w.CyclesPerSec = false, 0, 0
		b, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	journal := filepath.Join(t.TempDir(), "j")
	cache := new(engine.ResultCache)
	for _, d := range []Dialer{lyingDialer{Loopback{Workers: 2}}, deadDialer{}} {
		outs, err := collect(context.Background(), New(Options{Dialer: d, Shards: 2, ChunkPoints: 2, Journal: journal, Cache: cache}), p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got, want := row(outs[i]), row(ref[i]); !bytes.Equal(got, want) {
				t.Fatalf("%T: point %d streamed as\n%s\nwant\n%s", d, i, got, want)
			}
		}
	}
	for i, job := range p.Jobs() {
		if _, key, err := engine.ResolveJob(job, 0); err != nil {
			t.Fatal(err)
		} else if res, ok := cache.Get(key); !ok || res != ref[i].Result {
			t.Errorf("point %d: cache holds %v under its job (hit %v)", i, res.IPC, ok)
		}
	}
}

// orderGate's sessions hold the piece carrying index hold until some other
// piece has run, so a later range completes before an earlier one.
type orderGate struct {
	inner  Dialer
	hold   int
	landed chan struct{}
	once   sync.Once

	mu       sync.Mutex
	timedOut bool
}

func newOrderGate(inner Dialer, hold int) *orderGate {
	return &orderGate{inner: inner, hold: hold, landed: make(chan struct{})}
}

func (g *orderGate) Slots() int { return dialerSlots(g.inner) }

func (g *orderGate) Dial(ctx context.Context) (Session, error) {
	s, err := g.inner.Dial(ctx)
	if err != nil {
		return nil, err
	}
	return orderSession{g, s}, nil
}

type orderSession struct {
	g *orderGate
	s Session
}

func (o orderSession) Run(ctx context.Context, a Assignment, emit func(engine.RunOutcome) error) error {
	g := o.g
	if !slices.Contains(a.Indices, g.hold) {
		err := o.s.Run(ctx, a, emit)
		g.once.Do(func() { close(g.landed) })
		return err
	}
	// Bounded: a sweep in which no other piece runs fails the test's
	// timedOut check instead of hanging it.
	select {
	case <-g.landed:
	case <-time.After(10 * time.Second):
		g.mu.Lock()
		g.timedOut = true
		g.mu.Unlock()
	case <-ctx.Done():
		return ctx.Err()
	}
	return o.s.Run(ctx, a, emit)
}

func (o orderSession) Close() error { return o.s.Close() }

// TestStreamYieldsPlanOrder: whatever finishes first, a coordinator yields
// indices 0..n-1 in increasing order. In each run the piece of an early range
// is held until a later range has landed: a fresh run; a run whose cache
// serves the ranges between the held one and a later executed one; and a
// run resumed over a journal that holds only a middle range.
func TestStreamYieldsPlanOrder(t *testing.T) {
	ordered := func(label string, c *Coordinator, gate *orderGate, p *engine.Plan, ref []engine.RunOutcome) {
		t.Helper()
		outs := make([]engine.RunOutcome, 0, p.Points())
		for out, err := range c.Stream(context.Background(), p) {
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if out.Index != len(outs) {
				t.Fatalf("%s: outcome %d carries index %d; want plan order", label, len(outs), out.Index)
			}
			outs = append(outs, out)
		}
		requireIdentical(t, label, ref, outs)
		gate.mu.Lock()
		defer gate.mu.Unlock()
		if gate.timedOut {
			t.Errorf("%s: the held piece was released by its timeout; no later range ran", label)
		}
	}
	p := testPlan()
	ref := reference(t, p)
	cache := new(engine.ResultCache)
	journal := filepath.Join(t.TempDir(), "sweep.journal")

	// Fresh: range 0 waits for range 2.
	gate := newOrderGate(Loopback{Workers: 2}, 0)
	ordered("fresh", New(Options{Dialer: gate, Shards: 2, ChunkPoints: 2, Journal: journal, Cache: cache}), gate, p, ref)

	// Cached: every point of testPlan is cached, so overlapPlan misses only
	// indices 2 and 5. In ranges of one point, range 2 waits for range 5
	// while ranges 3 and 4 are served from the cache.
	po := overlapPlan()
	gate = newOrderGate(Loopback{Workers: 2}, 2)
	ordered("cached", New(Options{Dialer: gate, Shards: 2, ChunkPoints: 1, Cache: cache}), gate, po, reference(t, po))

	// Journal-resumed: drop ranges 0 and 4 from the fresh run's journal.
	// Range 0 waits for range 4 while range 2 replays from the journal.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	var kept []byte
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		var rec journalRecord
		if json.Unmarshal(line, &rec) == nil && rec.Type == "range" && rec.Start != 2 {
			continue
		}
		kept = append(kept, line...)
	}
	if err := os.WriteFile(journal, kept, 0o644); err != nil {
		t.Fatal(err)
	}
	gate = newOrderGate(Loopback{Workers: 2}, 0)
	counter := &countingDialer{inner: gate}
	ordered("resumed", New(Options{Dialer: counter, Shards: 2, ChunkPoints: 2, Journal: journal}), gate, p, ref)
	if jobs, _ := counter.shipped(); jobs != 4 {
		t.Errorf("resumed run shipped %d jobs, want the 4 of ranges 0 and 4", jobs)
	}
}
