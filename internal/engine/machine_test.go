package engine_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"fdip/internal/core"
	"fdip/internal/engine"
	"fdip/internal/simtest"
	"fdip/internal/workloads"
)

// poolGrid builds a job mix that forces heavy machine reuse: three
// configurations in blocks of sixteen (workload, seed) points each. At 8
// workers a block's jobs can meet at most 8 empty slots plus 7 slots a
// later block's jobs took first, so at least one of its 16 reuses a machine
// whatever the interleaving.
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
			for seed := int64(1); seed <= 8; seed++ {
				jobs = append(jobs, engine.Job{Config: cfg, Workload: wl, Seed: seed})
			}
		}
	}
	return jobs
}

// TestEnginePooledResetMatchesFresh is the engine end of the differential
// harness: a result served by a worker slot's reset machine must be
// DeepEqual to a machine constructed from scratch for the same triple. One
// worker means one slot, so each triple runs on the machine its dirty
// variant just left behind.
func TestEnginePooledResetMatchesFresh(t *testing.T) {
	e := engine.New(engine.WithWorkers(1))
	ctx := context.Background()
	for _, tr := range simtest.Grid() {
		// Dirty the slot first with a different point of the same config.
		dirty := simtest.DirtyVariant(tr)
		if _, err := e.Run(ctx, engine.Job{Config: dirty.Config, Workload: dirty.Workload, Seed: dirty.Seed}); err != nil {
			t.Fatalf("%s dirty: %v", tr.Name, err)
		}
		reused := e.Stats().MachinesReused
		got, err := e.Run(ctx, engine.Job{Config: tr.Config, Workload: tr.Workload, Seed: tr.Seed})
		if err != nil {
			t.Fatalf("%s: %v", tr.Name, err)
		}
		if n := e.Stats().MachinesReused - reused; n != 1 {
			t.Errorf("%s: run reused %d machines, want 1; the differential ran against a fresh machine", tr.Name, n)
		}
		if want := simtest.FreshResult(t, tr); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: engine (reset) result differs from fresh machine\nreset: %+v\nfresh: %+v", tr.Name, got, want)
		}
	}
}

// TestSweepPooledBitIdenticalAcrossWorkers runs the reuse-heavy grid at
// workers=1 and workers=8 and requires bit-identical outcomes. At 8 workers
// slots hand machines between goroutines in racy interleavings, so (with
// the engine package's -race CI pass) this is the slots' concurrency proof.
func TestSweepPooledBitIdenticalAcrossWorkers(t *testing.T) {
	jobs := poolGrid(20_000)
	ctx := context.Background()
	e1 := engine.New(engine.WithWorkers(1))
	ref, err := e1.Sweep(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	// One slot over three config blocks: one build per block.
	if st := e1.Stats(); st.MachinesBuilt != 3 {
		t.Errorf("workers=1 built %d machines over 3 config blocks; want 3", st.MachinesBuilt)
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
	if st.MachinesReused == 0 {
		t.Errorf("built %d machines for %d simulations with zero reuse; slots are not keeping their machines", st.MachinesBuilt, st.Simulations)
	}
	if st.MachinesBuilt+st.MachinesReused != st.Simulations {
		t.Errorf("machine accounting: built %d + reused %d != %d simulations", st.MachinesBuilt, st.MachinesReused, st.Simulations)
	}
}

// TestStreamRecyclingSurvivesGC pins that a slot's machine is an ordinary
// pointer no collection can evict: a same-config stream on one worker
// builds exactly one machine even with forced GCs between every delivery.
func TestStreamRecyclingSurvivesGC(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Prefetch.Kind = core.PrefetchFDP
	var jobs []engine.Job
	for seed := int64(1); seed <= 6; seed++ {
		jobs = append(jobs, engine.Job{Config: cfg, Workload: "gcc", Seed: seed})
	}
	e := engine.New(engine.WithWorkers(1), engine.WithInstrBudget(5_000))
	for out, err := range e.StreamJobs(context.Background(), jobs) {
		if err != nil || out.Err != nil {
			t.Fatalf("stream: %v / %v", err, out.Err)
		}
		runtime.GC()
		runtime.GC()
	}
	if st := e.Stats(); st.MachinesBuilt != 1 || st.MachinesReused != len(jobs)-1 {
		t.Errorf("built %d, reused %d machines over a %d-job same-config stream under GC pressure; want 1 and %d",
			st.MachinesBuilt, st.MachinesReused, len(jobs), len(jobs)-1)
	}
}

// TestSweepSteadyStateZeroAlloc gates the reuse payoff: once the slot's
// machine is warm, repeatedly sweeping new points of a known configuration
// performs no machine construction and no per-image set-up — the walker,
// the L2's set chunks and the image's static tables are all recycled or
// shared — so the engine's per-job allocations drop to job bookkeeping (memo
// entry, outcome record), orders of magnitude below the ~9MB machine build.
// CI runs this test in the allocation-regression gate.
func TestSweepSteadyStateZeroAlloc(t *testing.T) {
	e := engine.New(engine.WithWorkers(1))
	cfg := core.DefaultConfig()
	cfg.MaxInstrs = 2_000
	cfg.Prefetch.Kind = core.PrefetchFDP
	ctx := context.Background()

	// Warm-up: build the one machine and generate the image.
	if _, err := e.Run(ctx, engine.Job{Config: cfg, Workload: "gcc", Seed: 1}); err != nil {
		t.Fatal(err)
	}

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
		t.Errorf("steady-state sweep built %d machines; want exactly 1 (the slot's machine must be reset, not rebuilt)", st.MachinesBuilt)
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

// TestEngineMachinesBoundedByWorkers pins the engine's machine bound: an
// engine keeps at most one machine per worker slot, so streaming ever more
// distinct configs must not grow its retained heap. Images come from a
// pre-warmed shared cache, and the 16 results the memo gains are a few
// kilobytes, so after a GC the heap may grow from the 8th config to the
// 24th by no more than one machine (the two slots may end on a larger
// machine than they held at the 8th). An engine keeping an idle machine per
// config grows by about 256 KB per config here.
func TestEngineMachinesBoundedByWorkers(t *testing.T) {
	const oneMachine = 512 << 10 // TestMachineFootprint's largest bound
	ctx := context.Background()
	wl, ok := workloads.ByName("gcc")
	if !ok {
		t.Fatal("no workload gcc")
	}
	images := engine.NewImageCache()
	if _, err := images.Get(ctx, wl.Params); err != nil {
		t.Fatal(err)
	}
	var jobs []engine.Job
	for _, l1 := range []int{16 << 10, 32 << 10} {
		for _, ftq := range []int{16, 32} {
			for _, kind := range []core.PrefetcherKind{core.PrefetchNone, core.PrefetchNextLine, core.PrefetchStream,
				core.PrefetchFDP, core.PrefetchMANA, core.PrefetchShadow} {
				cfg := core.DefaultConfig()
				cfg.L1ISizeBytes = l1
				cfg.FTQEntries = ftq
				cfg.Prefetch.Kind = kind
				jobs = append(jobs, engine.Job{Config: cfg, Workload: wl.Name})
			}
		}
	}
	e := engine.New(engine.WithWorkers(2), engine.WithImageCache(images), engine.WithInstrBudget(2_000))
	live := func(jobs []engine.Job) uint64 {
		outs, err := e.Sweep(ctx, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for _, out := range outs {
			if out.Err != nil {
				t.Fatalf("%s: %v", out.Job.Name, out.Err)
			}
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	at8 := live(jobs[:8])
	at24 := live(jobs[8:])
	growth := int64(at24) - int64(at8)
	t.Logf("retained heap grew %d KB from the 8th config to the 24th (built %d machines)", growth>>10, e.Stats().MachinesBuilt)
	if growth > oneMachine {
		t.Errorf("retained heap grew %d KB over 16 more configs; want at most one machine (%d KB): the engine keeps machines per config",
			growth>>10, oneMachine>>10)
	}
}
