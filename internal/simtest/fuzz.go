// Differential fuzzing: one int64 seed expands into a random valid machine
// config paired with a random generated program, and the pair is run through
// every equivalence oracle the repo's determinism story rests on:
//
//  1. scheduled-vs-naive — the event-scheduled kernel (Run, with skipIdle)
//     must produce the bit-identical Result of per-cycle stepping (RunNaive);
//  2. pooled-Reset-vs-fresh — a machine dirtied by another run (completed or
//     abandoned mid-flight) and then Reset must reproduce a fresh machine;
//  3. workers-1-vs-8 — an engine Sweep's outcomes must be independent of the
//     worker count;
//  4. dist-vs-single — a distributed sweep over in-process HTTP workers
//     (shards in {1, 4}) must merge back to the single-process outcomes.
//
// The reference Result must also satisfy the accounting identities of
// checkIdentities.
//
// The config space deliberately covers every prefetcher kind and the corners
// where the scheduler contract is easiest to get wrong: tiny queues (heads
// defer and drop constantly), slow memory (long skippable stretches), and
// single-ported caches. Go's native fuzzer mutates the seed; see
// fuzz_test.go for the target and testdata/fuzz for the committed corpus.
package simtest

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"fdip/internal/core"
	"fdip/internal/dist"
	"fdip/internal/engine"
	"fdip/internal/oracle"
	"fdip/internal/prefetch"
	"fdip/internal/program"
)

// fuzzKinds is every prefetch engine the differential oracles must hold for.
var fuzzKinds = []core.PrefetcherKind{
	core.PrefetchNone,
	core.PrefetchNextLine,
	core.PrefetchStream,
	core.PrefetchFDP,
	core.PrefetchMANA,
	core.PrefetchShadow,
}

// fuzzConfig derives a random valid machine description. Every draw is a
// value Validate accepts, so a failure is always a kernel bug, never an
// input-rejection artifact.
func fuzzConfig(rng *rand.Rand) core.Config {
	pick := func(vs ...int) int { return vs[rng.Intn(len(vs))] }

	cfg := core.DefaultConfig()
	cfg.MaxInstrs = uint64(3_000 + rng.Intn(5_000))
	cfg.L1ISizeBytes = pick(1024, 2048, 4096, 16*1024)
	cfg.L1IWays = pick(1, 2, 4)
	cfg.LineBytes = pick(16, 32, 64)
	cfg.L1ITagPorts = pick(1, 2)
	cfg.PrefetchBufferEntries = pick(2, 8, 32)
	cfg.FTQEntries = pick(2, 8, 32)
	cfg.FetchWidth = pick(1, 4, 8)
	cfg.RedirectLatency = rng.Intn(5)
	cfg.PerfectL1I = rng.Intn(8) == 0

	cfg.Mem.L2HitLatency = 4 + rng.Intn(9)
	cfg.Mem.MemLatency = pick(40, 120, 300)
	cfg.Mem.BusCyclesPerLine = 1 + rng.Intn(6)

	cfg.PredictorName = []string{"hybrid", "gshare", "bimodal", "static-taken", "static-nottaken"}[rng.Intn(5)]
	cfg.PredictorSize = pick(256, 1024, 4096)
	cfg.PredictorHistBits = uint(4 + rng.Intn(11))
	cfg.FTB.Sets = pick(64, 256, 512)
	cfg.FTB.Ways = pick(1, 2, 4)
	cfg.FTB.BlockOriented = rng.Intn(2) == 0

	cfg.Prefetch.Kind = fuzzKinds[rng.Intn(len(fuzzKinds))]
	cfg.Prefetch.NextLinePending = 1 + rng.Intn(8)
	cfg.Prefetch.Streams = 1 + rng.Intn(6)
	cfg.Prefetch.StreamDepth = 1 + rng.Intn(6)
	cfg.Prefetch.FDP = prefetch.FDPConfig{
		PIQSize:   1 + rng.Intn(32),
		SkipHead:  rng.Intn(3),
		CPF:       []prefetch.CPFMode{prefetch.CPFOff, prefetch.CPFConservative, prefetch.CPFOptimistic}[rng.Intn(3)],
		RemoveCPF: rng.Intn(2) == 0,
	}
	cfg.Prefetch.MANA = prefetch.MANAConfig{
		BudgetBytes: pick(128, 512, 2048, 8192),
		RegionLines: 2 + rng.Intn(31),
		QueueSize:   1 + rng.Intn(16),
	}
	cfg.Prefetch.Shadow = prefetch.ShadowConfig{
		DecodeQueue:     1 + rng.Intn(8),
		TargetQueue:     1 + rng.Intn(8),
		PrefetchTargets: rng.Intn(4) != 0,
	}
	return cfg
}

// seedKind reports the prefetcher kind a fuzz seed's config draw lands on —
// the coverage axis the committed seed corpus is chosen over.
func seedKind(seed int64) core.PrefetcherKind {
	rng := rand.New(rand.NewSource(seed))
	return fuzzConfig(rng).Prefetch.Kind
}

// fuzzParams derives a random small program: big enough to have interesting
// control flow, small enough that one fuzz iteration generates it in
// milliseconds. Each product is rounded on its own (float64(...)), so no
// architecture fuses it into a multiply-add and a corpus entry derives the
// same program on every GOARCH.
func fuzzParams(rng *rand.Rand) program.Params {
	p := program.DefaultParams()
	p.Seed = rng.Int63()
	p.NumFuncs = 8 + rng.Intn(40)
	p.MeanBlocksPerFunc = 3 + rng.Intn(8)
	p.MeanBlockLen = 2 + rng.Intn(6)
	p.MaxLoopsPerFunc = rng.Intn(3)
	p.MeanLoopTrip = 2 + rng.Intn(10)
	p.CallFrac = 0.05 + float64(0.20*rng.Float64())
	p.CondFrac = 0.15 + float64(0.25*rng.Float64())
	p.JumpFrac = 0.15 * rng.Float64()
	p.IndirectFrac = 0.20 * rng.Float64()
	p.DispatchFanout = 4 + rng.Intn(16)
	p.DispatchTargets = 2 + rng.Intn(12)
	return p
}

// newMachine builds a machine from a config Fuzz has already validated.
func newMachine(tb testing.TB, cfg core.Config, im *program.Image, w *oracle.Walker) *core.Processor {
	tb.Helper()
	p, err := core.New(cfg, im, w)
	if err != nil {
		tb.Fatalf("core.New: %v", err)
	}
	return p
}

// Fuzz expands seed into one (config, program) pair and fails tb if any
// differential oracle is violated. It is the body of the native fuzz target
// FuzzKernelDifferential and is equally callable from plain tests.
func Fuzz(tb testing.TB, seed int64) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := fuzzConfig(rng)
	if err := cfg.Validate(); err != nil {
		tb.Fatalf("fuzz seed %d: derived config rejected: %v", seed, err)
	}
	params := fuzzParams(rng)
	im, err := program.Generate(params)
	if err != nil {
		tb.Fatalf("fuzz seed %d: derived program rejected: %v", seed, err)
	}
	wseed := rng.Int63()

	// Oracle 1: the event-scheduled kernel against naive per-cycle stepping.
	schedWalker := oracle.NewWalker(im, wseed)
	sched := newMachine(tb, cfg, im, schedWalker)
	want := sched.Run()
	checkIdentities(tb, cfg, want)
	naive := newMachine(tb, cfg, im, oracle.NewWalker(im, wseed)).RunNaive()
	if !reflect.DeepEqual(want, naive) {
		tb.Fatalf("fuzz seed %d (%s): scheduled kernel diverged from naive stepping\nscheduled: %+v\nnaive:     %+v",
			seed, cfg.Prefetch.Kind, want, naive)
	}

	// Oracle 2a: pooled checkout after a completed job — the machine that just
	// ran the scheduled pass is dirty, and so is its walker; resetting both,
	// as an engine worker slot does, must restore fresh semantics.
	schedWalker.Reset(im, wseed)
	sched.Reset(im, schedWalker)
	if got := sched.Run(); !reflect.DeepEqual(want, got) {
		tb.Fatalf("fuzz seed %d (%s): Reset after a completed run diverged from fresh\nfresh: %+v\nreset: %+v",
			seed, cfg.Prefetch.Kind, want, got)
	}

	// Oracle 2b: pooled checkout after an abandoned job — dirty the machine
	// and its walker mid-flight on a different walker seed, then reset both
	// and rerun.
	dirtyWalker := oracle.NewWalker(im, wseed+1)
	dirty := newMachine(tb, cfg, im, dirtyWalker)
	for steps := 200 + rng.Intn(800); steps > 0; steps-- {
		dirty.Step()
	}
	dirtyWalker.Reset(im, wseed)
	dirty.Reset(im, dirtyWalker)
	if got := dirty.Run(); !reflect.DeepEqual(want, got) {
		tb.Fatalf("fuzz seed %d (%s): Reset from a mid-flight state diverged from fresh\nfresh: %+v\nreset: %+v",
			seed, cfg.Prefetch.Kind, want, got)
	}

	// Oracle 3: engine sweeps are worker-count independent. The job list
	// includes a duplicate so memo coalescing is exercised too.
	jobs := []engine.Job{
		{Name: "a", Config: cfg, Params: &params, Seed: wseed},
		{Name: "b", Config: cfg, Params: &params, Seed: wseed + 1},
		{Name: "a-dup", Config: cfg, Params: &params, Seed: wseed},
	}
	cache := engine.NewImageCache()
	ctx := context.Background()
	one, err := engine.New(engine.WithWorkers(1), engine.WithImageCache(cache)).Sweep(ctx, jobs)
	if err != nil {
		tb.Fatalf("fuzz seed %d: workers=1 sweep: %v", seed, err)
	}
	eight, err := engine.New(engine.WithWorkers(8), engine.WithImageCache(cache)).Sweep(ctx, jobs)
	if err != nil {
		tb.Fatalf("fuzz seed %d: workers=8 sweep: %v", seed, err)
	}
	for i := range jobs {
		if one[i].Err != nil || eight[i].Err != nil {
			tb.Fatalf("fuzz seed %d: job %s failed: workers=1 err=%v workers=8 err=%v",
				seed, jobs[i].Name, one[i].Err, eight[i].Err)
		}
		if !reflect.DeepEqual(one[i].Result, eight[i].Result) {
			tb.Fatalf("fuzz seed %d: job %s result depends on worker count\nworkers=1: %+v\nworkers=8: %+v",
				seed, jobs[i].Name, one[i].Result, eight[i].Result)
		}
	}
	if !reflect.DeepEqual(one[0].Result, one[2].Result) {
		tb.Fatalf("fuzz seed %d: duplicate jobs produced different results", seed)
	}

	// Oracle 4: a distributed sweep merges back to the single-process
	// outcomes, shard count notwithstanding. Each shard has its own HTTP
	// worker, with its own engine and memo cache (no cross-shard coalescing
	// to hide behind), every assignment and outcome crosses the JSON wire,
	// and ChunkPoints 1 splits the three-job plan into three ranges so
	// shards=4 genuinely runs ranges at once, finishing in any order.
	plan := engine.FromJobs(jobs...)
	for _, shards := range []int{1, 4} {
		outs, err := distSweep(ctx, plan, shards)
		if err != nil {
			tb.Fatalf("fuzz seed %d: dist shards=%d sweep: %v", seed, shards, err)
		}
		for i := range jobs {
			if outs[i].Err != nil {
				tb.Fatalf("fuzz seed %d: dist shards=%d job %s: %v", seed, shards, jobs[i].Name, outs[i].Err)
			}
			if !reflect.DeepEqual(outs[i].Result, one[i].Result) {
				tb.Fatalf("fuzz seed %d: dist shards=%d job %s diverged from single-process\nsingle: %+v\ndist:   %+v",
					seed, shards, jobs[i].Name, one[i].Result, outs[i].Result)
			}
		}
	}
}

// distSweep runs p on a coordinator with the given shard count over as many
// in-process HTTP workers (the handler fdipd -listen serves), and collects
// the outcomes in enumeration order.
func distSweep(ctx context.Context, p *engine.Plan, shards int) ([]engine.RunOutcome, error) {
	reg := dist.NewRegistry(0)
	defer reg.Close()
	for i := 0; i < shards; i++ {
		srv := httptest.NewServer(dist.NewWorker(2).Handler())
		defer srv.Close()
		reg.Register(fmt.Sprintf("w%d", i), srv.URL, time.Hour)
	}
	co := dist.New(dist.Options{Dialer: reg, Shards: shards, ChunkPoints: 1})
	outs := make([]engine.RunOutcome, p.Points())
	for out, err := range co.Stream(ctx, p) {
		if err != nil {
			return nil, err
		}
		outs[out.Index] = out
	}
	return outs, nil
}
