package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"fdip/internal/oracle"
	"fdip/internal/prefetch"
)

// runNaive drives a processor with the pre-scheduler per-cycle loop: Step
// every cycle, no idle skipping. It is the reference semantics the
// event-scheduled kernel must reproduce bit-identically.
func runNaive(p *Processor) Result { return p.RunNaive() }

// schedConfigs covers every prefetcher (each has its own Idle rule) plus
// the perfect-L1I fetch path and a saturating stream machine.
func schedConfigs() map[string]Config {
	mk := func(mut func(*Config)) Config {
		cfg := DefaultConfig()
		cfg.MaxInstrs = 60_000
		mut(&cfg)
		return cfg
	}
	return map[string]Config{
		"none": mk(func(*Config) {}),
		"fdp": mk(func(c *Config) {
			c.Prefetch.Kind = PrefetchFDP
		}),
		"fdp+cpf+remove": mk(func(c *Config) {
			c.Prefetch.Kind = PrefetchFDP
			c.Prefetch.FDP.CPF = prefetch.CPFConservative
			c.Prefetch.FDP.RemoveCPF = true
		}),
		"nextline": mk(func(c *Config) {
			c.Prefetch.Kind = PrefetchNextLine
		}),
		"stream": mk(func(c *Config) {
			c.Prefetch.Kind = PrefetchStream
		}),
		"perfect": mk(func(c *Config) {
			c.PerfectL1I = true
		}),
		"slow-mem": mk(func(c *Config) {
			c.Prefetch.Kind = PrefetchFDP
			c.Mem.MemLatency = 300
			c.MaxInstrs = 30_000
		}),
		// Stall-heavy regimes: long misses with only the BPU's run-ahead
		// active (none/slow-mem), and an FDP whose tiny PIQ is full most
		// cycles, so the engine stays busy behind a blocked scan
		// (small-piq).
		"none-slow-mem": mk(func(c *Config) {
			c.Mem.MemLatency = 300
			c.MaxInstrs = 30_000
		}),
		"fdp-small-piq": mk(func(c *Config) {
			c.Prefetch.Kind = PrefetchFDP
			c.Prefetch.FDP.PIQSize = 4
		}),
		"fdp-cpf-slow-mem": mk(func(c *Config) {
			c.Prefetch.Kind = PrefetchFDP
			c.Prefetch.FDP.CPF = prefetch.CPFConservative
			c.Mem.MemLatency = 300
			c.MaxInstrs = 30_000
		}),
		// The modern engines, each with a default machine and the two
		// corners that stress their Idle rules: a tiny replay/target queue
		// (heads defer and drop constantly) and slow memory (long stalls
		// with work pending).
		"mana": mk(func(c *Config) {
			c.Prefetch.Kind = PrefetchMANA
		}),
		"mana-tiny-queue": mk(func(c *Config) {
			c.Prefetch.Kind = PrefetchMANA
			c.Prefetch.MANA.QueueSize = 2
			c.Prefetch.MANA.BudgetBytes = 256
		}),
		"mana-slow-mem": mk(func(c *Config) {
			c.Prefetch.Kind = PrefetchMANA
			c.Prefetch.MANA.RegionLines = 16
			c.Mem.MemLatency = 300
			c.MaxInstrs = 30_000
		}),
		"shadow": mk(func(c *Config) {
			c.Prefetch.Kind = PrefetchShadow
		}),
		"shadow-tiny-queue": mk(func(c *Config) {
			c.Prefetch.Kind = PrefetchShadow
			c.Prefetch.Shadow.DecodeQueue = 1
			c.Prefetch.Shadow.TargetQueue = 2
		}),
		"shadow-slow-mem": mk(func(c *Config) {
			c.Prefetch.Kind = PrefetchShadow
			c.Mem.MemLatency = 300
			c.MaxInstrs = 30_000
		}),
	}
}

// TestScheduledKernelMatchesNaive is the bit-identity contract of the
// event-scheduled kernel: fast-forwarding idle stretches must produce
// exactly the Result that stepping every cycle does — same cycle count,
// same every counter, same histogram-derived occupancies.
func TestScheduledKernelMatchesNaive(t *testing.T) {
	for name, cfg := range schedConfigs() {
		t.Run(name, func(t *testing.T) {
			im := testImage(t, 7, 120)
			naive := MustNew(cfg, im, oracle.NewWalker(im, 42))
			want := runNaive(naive)

			sched := MustNew(cfg, im, oracle.NewWalker(im, 42))
			got, err := sched.RunContext(context.Background())
			if err != nil {
				t.Fatalf("scheduled run: %v", err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("scheduled result diverged from naive stepping:\nnaive: %+v\nsched: %+v", want, got)
			}
			if want.Cycles == 0 || want.Committed < cfg.MaxInstrs {
				t.Fatalf("reference run did not complete: %+v", want)
			}
		})
	}
}

// TestSkipIdleActuallySkips guards the performance property: on a machine
// dominated by memory stalls, the scheduled run must take far fewer loop
// iterations (observable as Step invocations) than cycles. We approximate by
// checking that a full run completes with the same result while the fetch
// stall/idle counters — which only bulk-accounting can reach in so few
// iterations — stay identical to the naive run above. Here we just assert
// the skip path engages at all on a cold machine.
func TestSkipIdleActuallySkips(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInstrs = 5_000
	im := testImage(t, 3, 60)
	p := MustNew(cfg, im, oracle.NewWalker(im, 5))

	// Prime until the machine is genuinely idle: fetch stalled on a cold
	// miss AND the BPU has run ahead into a full FTQ. From there skipIdle
	// must jump toward the stall's end.
	for p.now < 1000 {
		_, stalled := p.fe.StallEvent()
		if stalled && p.q.Full() {
			break
		}
		p.Step()
	}
	before := p.now
	p.skipIdle()
	if p.now == before {
		t.Fatalf("skipIdle did not advance past a cold-miss stall at cycle %d", before)
	}
	if until, stalled := p.fe.StallEvent(); !stalled || p.now > until {
		t.Fatalf("skip overshot the stall: now=%d stallUntil=%d stalled=%v", p.now, until, stalled)
	}
}

// TestStepAllocFreeSteadyState pins the zero-allocation contract of the
// cycle kernel at the core level (the public-API twin lives in the root
// package): after warm-up, Step must not allocate.
func TestStepAllocFreeSteadyState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Prefetch.Kind = PrefetchFDP
	cfg.Prefetch.FDP.CPF = prefetch.CPFConservative
	cfg.MaxInstrs = 1 << 62
	im := testImage(t, 9, 60)
	p := MustNew(cfg, im, oracle.NewWalker(im, 17))
	for i := 0; i < 300_000; i++ {
		p.Step()
	}
	if avg := testing.AllocsPerRun(2000, func() { p.Step() }); avg != 0 {
		t.Fatalf("Processor.Step allocates %.2f times per cycle in steady state; want 0", avg)
	}
}

// TestStepZeroMallocEveryPrefetcher runs each prefetch scheme's machine for
// a million steps after a two-million-step warm-up and requires the exact
// heap-object count to stay put. testing.AllocsPerRun rounds to a whole
// number per run, so a queue that re-allocates once every few hundred
// thousand cycles reads as 0 there; the MemStats delta does not round.
func TestStepZeroMallocEveryPrefetcher(t *testing.T) {
	if testing.Short() {
		t.Skip("3M steps per prefetcher")
	}
	im := testImage(t, 9, 60)
	for _, kind := range []PrefetcherKind{
		PrefetchNone, PrefetchNextLine, PrefetchStream, PrefetchFDP, PrefetchMANA, PrefetchShadow,
	} {
		t.Run(string(kind), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Prefetch.Kind = kind
			cfg.MaxInstrs = 1 << 62
			p := MustNew(cfg, im, oracle.NewWalker(im, 17))
			for i := 0; i < 2_000_000; i++ {
				p.Step()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 1_000_000; i++ {
				p.Step()
			}
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Fatalf("%s machine malloced %d times (%d bytes) in 1M warmed-up steps; want 0",
					kind, n, after.TotalAlloc-before.TotalAlloc)
			}
		})
	}
}

// TestScheduledKernelZeroAlloc extends the zero-allocation gate to the
// event-scheduled kernel: steady-state scheduled execution — Step plus
// skipIdle on a stall-heavy machine, so idle jumps and their bulk counter
// accounting fire throughout — must not allocate. CI runs this alongside
// TestStepZeroAlloc.
func TestScheduledKernelZeroAlloc(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1ISizeBytes = 8 * 1024
	cfg.FTQEntries = 64
	cfg.Mem.MemLatency = 300
	cfg.MaxInstrs = 1 << 62
	im := testImage(t, 9, 60)
	p := MustNew(cfg, im, oracle.NewWalker(im, 17))
	for i := 0; i < 200_000; i++ {
		p.Step()
		p.skipIdle()
	}
	if avg := testing.AllocsPerRun(5000, func() {
		p.Step()
		p.skipIdle()
	}); avg != 0 {
		t.Fatalf("scheduled kernel allocates %.3f times per iteration in steady state; want 0", avg)
	}
}

// TestCancellationLatencyBounded pins RunContext's worst-case cancellation
// latency in simulated cycles: polling happens on cycle progress (every
// ctxPollCycles), so even a skip-heavy run — where 1024 loop iterations
// once spanned hundreds of thousands of cycles — notices a dead context
// within one poll window plus a single scheduler jump.
func TestCancellationLatencyBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1ISizeBytes = 4 * 1024
	cfg.FTQEntries = 64
	cfg.Mem.MemLatency = 8000 // enormous stalls: jumps dwarf iteration counts
	cfg.MaxInstrs = 1 << 62
	cfg.MaxCycles = 1 << 62
	im := testImage(t, 11, 40)
	p := MustNew(cfg, im, oracle.NewWalker(im, 3))

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // dead before the run starts: the poll alone ends it
	if _, err := p.RunContext(ctx); err != context.Canceled {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	// One poll window plus one jump (bounded here by the memory stall).
	const bound = ctxPollCycles + 2*8192
	if p.Now() > bound {
		t.Fatalf("cancellation noticed at cycle %d, want <= %d", p.Now(), bound)
	}
}
