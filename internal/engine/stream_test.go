package engine

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"fdip/internal/core"
	"fdip/internal/workloads"
)

// streamTestPlan is a small mixed plan (2 workloads x 3 schemes).
func streamTestPlan() *Plan {
	gcc, _ := workloads.ByName("gcc")
	db, _ := workloads.ByName("deltablue")
	return NewPlan(core.DefaultConfig()).
		Over(gcc, db).
		Axes(Configs(
			Named("none", core.DefaultConfig()),
			Named("nextline", func() core.Config {
				c := core.DefaultConfig()
				c.Prefetch.Kind = core.PrefetchNextLine
				return c
			}()),
			Named("fdp", func() core.Config {
				c := core.DefaultConfig()
				c.Prefetch.Kind = core.PrefetchFDP
				return c
			}()),
		))
}

// TestStreamMatchesSweep pins the collector equivalence: collecting Stream
// by outcome Index reproduces Sweep's job-ordered outcomes bit-identically,
// whatever the worker count.
func TestStreamMatchesSweep(t *testing.T) {
	jobs := quickJobs()
	ref, err := New(WithWorkers(1), WithInstrBudget(30_000)).Sweep(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		e := New(WithWorkers(workers), WithInstrBudget(30_000))
		outs := make([]RunOutcome, len(jobs))
		seen := 0
		for out, err := range e.StreamJobs(context.Background(), jobs) {
			if err != nil {
				t.Fatalf("workers=%d: stream error: %v", workers, err)
			}
			if out.Err != nil {
				t.Fatalf("workers=%d: job %s: %v", workers, out.Job.Name, out.Err)
			}
			outs[out.Index] = out
			seen++
		}
		if seen != len(jobs) {
			t.Fatalf("workers=%d: streamed %d outcomes, want %d", workers, seen, len(jobs))
		}
		for i := range jobs {
			if outs[i].Result != ref[i].Result {
				t.Errorf("workers=%d job %d (%s): stream result differs from 1-worker Sweep",
					workers, i, outs[i].Job.Name)
			}
		}
	}
}

// TestStreamEarlyBreakStopsWorkers verifies that breaking out of the range
// loop cancels outstanding jobs promptly: once the iterator returns, the
// engine has stopped simulating and the spawner never expands the rest of
// the plan — a 10k-point plan of real simulations unwinds after one
// delivery in test time, not sweep time.
func TestStreamEarlyBreakStopsWorkers(t *testing.T) {
	gcc, _ := workloads.ByName("gcc")
	ftqs := make([]int, 10_000)
	for i := range ftqs {
		ftqs[i] = 4 + i // all distinct: no memo coalescing
	}
	p := NewPlan(core.DefaultConfig()).Over(gcc).
		Axes(Vary("ftq", ftqs, func(c *core.Config, n int) { c.FTQEntries = n }))
	e := New(WithWorkers(2), WithInstrBudget(20_000))

	delivered := 0
	for out, err := range e.Stream(context.Background(), p) {
		if err != nil || out.Err != nil {
			t.Fatalf("first delivery failed: %v / %v", err, out.Err)
		}
		delivered++
		break
	}
	if delivered != 1 {
		t.Fatalf("delivered = %d", delivered)
	}
	// The iterator returned, which per the contract means every outstanding
	// goroutine was reaped: only the bounded in-flight window may have
	// simulated, and nothing keeps running afterwards.
	st := e.Stats()
	if limit := 2*e.Workers() + 2; st.Simulations > limit {
		t.Errorf("%d simulations ran before the break unwound (in-flight bound %d)", st.Simulations, limit)
	}
	time.Sleep(150 * time.Millisecond)
	if st2 := e.Stats(); st2.Simulations != st.Simulations {
		t.Errorf("engine kept simulating after break: %d -> %d", st.Simulations, st2.Simulations)
	}
}

// TestStreamCancelTerminatesUnboundedJob pins prompt cancellation while the
// consumer is blocked waiting for a delivery that will never come: the only
// job is effectively unbounded, so the stream must unwind via the in-flight
// job's RunContext cancellation, not by waiting out the 2^40-instruction
// budget.
func TestStreamCancelTerminatesUnboundedJob(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.MaxInstrs = 1 << 40
	e := New(WithWorkers(1))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for out, err := range e.StreamJobs(ctx, []Job{{Workload: "gcc", Config: cfg}}) {
			if err == nil && out.Err == nil {
				t.Error("unbounded job reported success")
			}
		}
	}()
	time.Sleep(50 * time.Millisecond) // let the job start simulating
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not unwind after mid-simulation cancellation")
	}
}

// TestStreamMidCancellation cancels the context while the stream is being
// consumed: in-flight jobs stop promptly, the stream yields a terminal
// context error, and jobs never spawned are never started.
func TestStreamMidCancellation(t *testing.T) {
	gcc, _ := workloads.ByName("gcc")
	cfg := core.DefaultConfig()
	cfg.MaxInstrs = 1 << 40
	seeds := make([]int, 64)
	for i := range seeds {
		seeds[i] = i
	}
	p := NewPlan(cfg).Over(gcc).
		Axes(Vary("ftq", seeds, func(c *core.Config, n int) { c.FTQEntries = 8 + n }))
	e := New(WithWorkers(2))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()

	start := time.Now()
	var terminal error
	perJobCtxErrs := 0
	for out, err := range e.Stream(ctx, p) {
		if err != nil {
			terminal = err
			continue
		}
		if errors.Is(out.Err, context.Canceled) {
			perJobCtxErrs++
		}
	}
	if !errors.Is(terminal, context.Canceled) {
		t.Errorf("terminal stream error = %v, want context.Canceled", terminal)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation took %s to unwind the stream", elapsed)
	}
	// Only the in-flight window (bounded by the worker count) may have been
	// spawned and cancelled; the rest of the 64-point plan stays unexpanded.
	if perJobCtxErrs > 2*e.Workers()+2 {
		t.Errorf("%d cancelled job outcomes streamed; in-flight work was not bounded (workers=%d)",
			perJobCtxErrs, e.Workers())
	}
	if st := e.Stats(); st.Simulations != 0 {
		t.Errorf("unbounded jobs completed %d simulations", st.Simulations)
	}
}

// TestStreamPerJobFailuresKeepStreaming: a failing job is one outcome among
// many, not a stream abort.
func TestStreamPerJobFailuresKeepStreaming(t *testing.T) {
	jobs := []Job{
		{Workload: "gcc", Config: core.DefaultConfig()},
		{Workload: "hexray", Config: core.DefaultConfig()}, // unknown: fails
		{Workload: "deltablue", Config: core.DefaultConfig()},
	}
	e := New(WithWorkers(2), WithInstrBudget(20_000))
	got := make([]RunOutcome, len(jobs))
	n := 0
	for out, err := range e.StreamJobs(context.Background(), jobs) {
		if err != nil {
			t.Fatalf("stream-level error for a per-job failure: %v", err)
		}
		got[out.Index] = out
		n++
	}
	if n != len(jobs) {
		t.Fatalf("streamed %d outcomes, want %d", n, len(jobs))
	}
	if got[0].Err != nil || got[2].Err != nil {
		t.Errorf("healthy jobs failed: %v / %v", got[0].Err, got[2].Err)
	}
	if got[1].Err == nil {
		t.Error("unknown workload did not fail")
	}
}

// TestBadCacheGeometryFailsItsOwnJob pins that a cache geometry cache.New
// refuses — a set count that is no positive power of two, or a size below
// one set — fails config validation: Run returns an error instead of
// panicking, and in a sweep the bad column fails as a per-job error while
// the columns beside it run, instead of a panic aborting the stream.
func TestBadCacheGeometryFailsItsOwnJob(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"l1i-size", func(c *core.Config) { c.L1ISizeBytes = 3000 }},
		{"l1i-ways", func(c *core.Config) { c.L1IWays = 3 }},
		{"l1i-below-one-set", func(c *core.Config) { c.L1ISizeBytes = 32 }},
		{"l2-size", func(c *core.Config) { c.Mem.L2SizeBytes = 3 << 20 }},
		{"l2-ways", func(c *core.Config) { c.Mem.L2Ways = 6 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			tc.mutate(&cfg)
			e := New(WithWorkers(2), WithInstrBudget(5_000))
			if _, err := e.Run(context.Background(), Job{Workload: "gcc", Config: cfg}); err == nil {
				t.Fatal("Run accepted the geometry")
			}
			jobs := []Job{
				{Workload: "gcc", Config: core.DefaultConfig()},
				{Workload: "gcc", Config: cfg},
				{Workload: "deltablue", Config: core.DefaultConfig()},
			}
			got := make([]RunOutcome, len(jobs))
			n := 0
			for out, err := range e.StreamJobs(context.Background(), jobs) {
				if err != nil {
					t.Fatalf("stream-level error for a bad column: %v", err)
				}
				got[out.Index] = out
				n++
			}
			if n != len(jobs) {
				t.Fatalf("streamed %d outcomes, want %d", n, len(jobs))
			}
			if got[0].Err != nil || got[2].Err != nil {
				t.Errorf("healthy columns failed: %v / %v", got[0].Err, got[2].Err)
			}
			if got[1].Err == nil {
				t.Error("the bad column did not fail")
			}
		})
	}
}

// TestHostileSizesRefused: a config whose table counts no machine could
// hold is refused by Validate before anything is built. The first probe hung
// in the FTB's power-of-two round-up (n <<= 1 overflows to 0), the 2^36
// probes exhausted memory in a make, and FTQEntries at 2^62 panicked in
// makeslice. Each must now fail its Run within a second, allocating well
// under one table's worth of heap.
func TestHostileSizesRefused(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"ftb-sets-2^62+1", func(c *core.Config) { c.FTB.Sets, c.FTB.Ways = 1<<62+1, 1 }},
		{"ftq-2^36", func(c *core.Config) { c.FTQEntries = 1 << 36 }},
		{"predictor-2^36", func(c *core.Config) { c.PredictorSize = 1 << 36 }},
		{"ras-2^36", func(c *core.Config) { c.RASEntries = 1 << 36 }},
		{"ftq-2^62", func(c *core.Config) { c.FTQEntries = 1 << 62 }},
		{"predictor-2^62+1", func(c *core.Config) { c.PredictorSize = 1<<62 + 1 }},
		{"ftb-sets-x-ways", func(c *core.Config) { c.FTB.Sets, c.FTB.Ways = 1<<20, 1<<20 }},
	}
	e := New(WithWorkers(1))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			tc.mutate(&cfg)
			done := make(chan error, 1)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			go func() {
				_, err := e.Run(context.Background(), Job{Workload: "gcc", Config: cfg})
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("Run accepted the config")
				}
			case <-time.After(time.Second):
				t.Fatal("Run did not return within a second")
			}
			runtime.ReadMemStats(&after)
			if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
				t.Errorf("refusal allocated %d bytes", d)
			}
		})
	}
}

// TestStreamPanicSurfacesAsTerminalError pins the panic contract: a panic in
// a worker goroutine (here injected through the progress sink, which runJob
// invokes on the worker's stack) must surface as the stream's terminal error
// — with the panic value in the message — instead of a hang or a silent
// stop, and Sweep must propagate the same error.
func TestStreamPanicSurfacesAsTerminalError(t *testing.T) {
	jobs := []Job{
		{Workload: "gcc", Config: core.DefaultConfig()},
		{Workload: "deltablue", Config: core.DefaultConfig()},
	}
	newEngine := func() *Engine {
		return New(WithWorkers(2), WithInstrBudget(5_000), WithProgress(func(ev Event) {
			if ev.Kind == EventJobStarted && ev.Job.Name == "gcc" {
				panic("injected progress-sink panic")
			}
		}))
	}

	done := make(chan struct{})
	var terminal error
	go func() {
		defer close(done)
		for _, err := range newEngine().StreamJobs(context.Background(), jobs) {
			if err != nil {
				terminal = err
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stream hung instead of surfacing the worker panic")
	}
	if terminal == nil {
		t.Fatal("panicking job streamed to completion with no terminal error (silent stop)")
	}
	if !strings.Contains(terminal.Error(), "injected progress-sink panic") {
		t.Errorf("terminal error %q does not carry the panic value", terminal)
	}

	if _, err := newEngine().Sweep(context.Background(), jobs); err == nil ||
		!strings.Contains(err.Error(), "injected progress-sink panic") {
		t.Errorf("Sweep error = %v, want the propagated panic", err)
	}
}

// TestStreamPlanGrid streams a full plan and checks the RowCol bookkeeping
// lines up with per-job configs.
func TestStreamPlanGrid(t *testing.T) {
	p := streamTestPlan()
	e := New(WithWorkers(4), WithInstrBudget(20_000))
	kinds := [][]core.PrefetcherKind{
		make([]core.PrefetcherKind, 3), make([]core.PrefetcherKind, 3),
	}
	for out, err := range e.Stream(context.Background(), p) {
		if err != nil || out.Err != nil {
			t.Fatalf("stream: %v / %v", err, out.Err)
		}
		r, c := p.RowCol(out.Index)
		kinds[r][c] = out.Job.Config.Prefetch.Kind
	}
	for r := range kinds {
		want := []core.PrefetcherKind{core.PrefetchNone, core.PrefetchNextLine, core.PrefetchFDP}
		for c := range kinds[r] {
			if kinds[r][c] != want[c] {
				t.Errorf("grid cell (%d,%d) ran %q, want %q", r, c, kinds[r][c], want[c])
			}
		}
	}
}
