package engine_test

import (
	"context"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"fdip/internal/core"
	"fdip/internal/engine"
	"fdip/internal/simtest"
)

// poolGrid builds a job mix that forces heavy machine reuse: few distinct
// configurations, many (workload, seed) points each.
func poolGrid(instrs uint64) []engine.Job {
	base := core.DefaultConfig()
	base.MaxInstrs = instrs
	fdp := base
	fdp.Prefetch.Kind = core.PrefetchFDP
	nl := base
	nl.Prefetch.Kind = core.PrefetchNextLine
	var jobs []engine.Job
	for _, cfg := range []core.Config{base, fdp, nl} {
		for _, wl := range []string{"gcc", "perl"} {
			for seed := int64(1); seed <= 3; seed++ {
				jobs = append(jobs, engine.Job{Config: cfg, Workload: wl, Seed: seed})
			}
		}
	}
	return jobs
}

// TestEnginePooledResetMatchesFresh is the engine end of the differential
// harness: results served through the engine's machine pool must be
// DeepEqual to a machine constructed from scratch for the same triple.
func TestEnginePooledResetMatchesFresh(t *testing.T) {
	e := engine.New(engine.WithWorkers(2))
	ctx := context.Background()
	for _, tr := range simtest.Grid() {
		// Dirty the pool first with a different point of the same config.
		dirty := simtest.DirtyVariant(tr)
		if _, err := e.Run(ctx, engine.Job{Config: dirty.Config, Workload: dirty.Workload, Seed: dirty.Seed}); err != nil {
			t.Fatalf("%s dirty: %v", tr.Name, err)
		}
		got, err := e.Run(ctx, engine.Job{Config: tr.Config, Workload: tr.Workload, Seed: tr.Seed})
		if err != nil {
			t.Fatalf("%s: %v", tr.Name, err)
		}
		if want := simtest.FreshResult(t, tr); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: engine (pooled) result differs from fresh machine\npooled: %+v\nfresh:  %+v", tr.Name, got, want)
		}
	}
	// Under -race, sync.Pool drops Puts at random by design, so reuse is
	// not guaranteed there (the non-race CI steps enforce it).
	if st := e.Stats(); st.MachinesReused == 0 && !engine.RaceEnabled {
		t.Errorf("pool never reused a machine (built %d, reused %d); the differential ran against fresh machines only", st.MachinesBuilt, st.MachinesReused)
	}
}

// TestSweepPooledBitIdenticalAcrossWorkers runs the reuse-heavy grid at
// workers=1 and workers=8 and requires bit-identical outcomes. Machines are
// checked out, reset, and returned in racy interleavings at 8 workers, so
// (with the engine package's -race CI pass) this is the pool's concurrency
// proof.
func TestSweepPooledBitIdenticalAcrossWorkers(t *testing.T) {
	jobs := poolGrid(20_000)
	ctx := context.Background()
	ref, err := engine.New(engine.WithWorkers(1)).Sweep(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	e8 := engine.New(engine.WithWorkers(8))
	outs, err := e8.Sweep(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		if outs[i].Err != nil {
			t.Fatalf("workers=8 job %d (%s): %v", i, outs[i].Job.Name, outs[i].Err)
		}
		if !reflect.DeepEqual(ref[i].Result, outs[i].Result) {
			t.Errorf("job %d (%s seed %d): workers=8 result differs from workers=1", i, outs[i].Job.Name, outs[i].Job.Seed)
		}
	}
	st := e8.Stats()
	// A total pooling regression means every simulation builds its own
	// machine. Concurrency makes a few extra builds legitimate (workers can
	// miss the pool simultaneously), and -race drops Puts at random, so the
	// guard is reuse-happened rather than an exact build count.
	if st.MachinesReused == 0 && !engine.RaceEnabled {
		t.Errorf("built %d machines for %d simulations with zero reuse; pool is not recycling", st.MachinesBuilt, st.Simulations)
	}
	if st.MachinesBuilt+st.MachinesReused != st.Simulations {
		t.Errorf("checkout accounting: built %d + reused %d != %d simulations", st.MachinesBuilt, st.MachinesReused, st.Simulations)
	}
}

// TestStreamRecyclingSurvivesGC pins the fix for a recycling regression:
// streamed round-robin plans space same-config points apart, and
// sync.Pool's per-GC eviction meant each arrival could rebuild the machine
// (machines_built 66 -> 103 on the full suite). The bounded eviction-resistant
// slot must keep exactly one idle machine per configuration alive through
// arbitrary GC pressure, so a reuse-heavy round-robin stream builds exactly
// one machine per distinct configuration even with forced GCs between every
// delivery. The resident slot is an ordinary pointer, so unlike the
// sync.Pool tier this guarantee holds under -race too.
func TestStreamRecyclingSurvivesGC(t *testing.T) {
	base := core.DefaultConfig()
	fdp := base
	fdp.Prefetch.Kind = core.PrefetchFDP
	nl := base
	nl.Prefetch.Kind = core.PrefetchNextLine
	cfgs := []core.Config{base, fdp, nl}
	// Round-robin order — config varies fastest — exactly the streamed
	// interleaving that defeated the bare sync.Pool.
	var jobs []engine.Job
	for seed := int64(1); seed <= 6; seed++ {
		for _, cfg := range cfgs {
			jobs = append(jobs, engine.Job{Config: cfg, Workload: "gcc", Seed: seed})
		}
	}
	e := engine.New(engine.WithWorkers(1), engine.WithInstrBudget(5_000))
	for out, err := range e.StreamJobs(context.Background(), jobs) {
		if err != nil || out.Err != nil {
			t.Fatalf("stream: %v / %v", err, out.Err)
		}
		// Two cycles: sync.Pool's victim cache survives one collection, so a
		// single GC would not have reproduced the regression reliably.
		runtime.GC()
		runtime.GC()
	}
	if st := e.Stats(); st.MachinesBuilt != len(cfgs) {
		t.Errorf("machines_built = %d over a %d-config round-robin stream under GC pressure; want exactly %d (the eviction-resistant slot is not holding)",
			st.MachinesBuilt, len(cfgs), len(cfgs))
	}
}

// TestSweepSteadyStateZeroAlloc gates the pooling payoff: once the pool is
// warm, repeatedly sweeping new points of a known configuration performs no
// machine construction and no per-image set-up — the walker, the L2's set
// chunks and the image's static tables are all recycled or shared — so the
// engine's per-job allocations drop to job bookkeeping (memo entry, outcome
// record), orders of magnitude below the ~9MB machine build. CI runs this
// test in the allocation-regression gate.
func TestSweepSteadyStateZeroAlloc(t *testing.T) {
	if engine.RaceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race; the allocation gate runs in the non-race CI step")
	}
	e := engine.New(engine.WithWorkers(1))
	cfg := core.DefaultConfig()
	cfg.MaxInstrs = 2_000
	cfg.Prefetch.Kind = core.PrefetchFDP
	ctx := context.Background()

	// Warm-up: build the one machine and generate the image.
	if _, err := e.Run(ctx, engine.Job{Config: cfg, Workload: "gcc", Seed: 1}); err != nil {
		t.Fatal(err)
	}

	// sync.Pool empties under GC; disable collection so the measurement
	// observes the pool's steady state rather than GC timing.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	const runs = 10
	seed := int64(100)
	var runErr error
	run := func() {
		seed++ // a fresh memo key every run: each run truly simulates
		if _, err := e.Run(ctx, engine.Job{Config: cfg, Workload: "gcc", Seed: seed}); err != nil {
			runErr = err
		}
	}
	avg := testing.AllocsPerRun(runs, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytesPerRun := (after.TotalAlloc - before.TotalAlloc) / runs
	if runErr != nil {
		t.Fatal(runErr)
	}
	st := e.Stats()
	if st.MachinesBuilt != 1 {
		t.Errorf("steady-state sweep built %d machines; want exactly 1 (construction must be pooled away)", st.MachinesBuilt)
	}
	if st.MachinesReused < 2*runs+1 {
		t.Errorf("machines reused = %d; want >= %d (one per measured run)", st.MachinesReused, 2*runs+1)
	}
	t.Logf("steady-state Run: %.1f allocs/run, %d B/run (machines built %d, reused %d)",
		avg, bytesPerRun, st.MachinesBuilt, st.MachinesReused)
	// Per-run bookkeeping (memo entry, outcome) is a handful of
	// allocations; a per-point walker or L2 chunk would exceed this bound,
	// and machine construction far exceeds it.
	if avg > 16 {
		t.Errorf("steady-state Run allocates %.0f objects; want <= 16 (per-point set-up is leaking back in)", avg)
	}
	// The byte bound catches what the count cannot: one image-sized table
	// rebuilt per point is a single allocation but hundreds of kilobytes.
	if bytesPerRun >= 64<<10 {
		t.Errorf("steady-state Run allocates %d B; want < 64 KB (per-point set-up scales with the image again)", bytesPerRun)
	}
}
