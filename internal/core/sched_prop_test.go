package core

import (
	"math/rand"
	"testing"

	"fdip/internal/oracle"
	"fdip/internal/prefetch"
)

// randSchedConfig draws a machine over the dimensions that shape the
// scheduler: prefetcher kind and filtering, PIQ/FTQ geometry, cache size,
// memory latency, and bus occupancy.
func randSchedConfig(rng *rand.Rand) Config {
	cfg := DefaultConfig()
	cfg.MaxInstrs = 8_000
	switch rng.Intn(6) {
	case 0: // none
	case 1:
		cfg.Prefetch.Kind = PrefetchNextLine
		cfg.Prefetch.NextLinePending = 1 + rng.Intn(8)
	case 2:
		cfg.Prefetch.Kind = PrefetchStream
		cfg.Prefetch.Streams = 1 + rng.Intn(4)
		cfg.Prefetch.StreamDepth = 1 + rng.Intn(6)
	case 3:
		cfg.Prefetch.Kind = PrefetchFDP
		cfg.Prefetch.FDP.PIQSize = 2 + rng.Intn(15)
		cfg.Prefetch.FDP.CPF = prefetch.CPFMode(rng.Intn(3))
		cfg.Prefetch.FDP.RemoveCPF = rng.Intn(4) == 0
	case 4:
		cfg.Prefetch.Kind = PrefetchMANA
		cfg.Prefetch.MANA.BudgetBytes = []int{128, 1024, 4096}[rng.Intn(3)]
		cfg.Prefetch.MANA.RegionLines = 2 + rng.Intn(31)
		cfg.Prefetch.MANA.QueueSize = 1 + rng.Intn(16)
	case 5:
		cfg.Prefetch.Kind = PrefetchShadow
		cfg.Prefetch.Shadow.DecodeQueue = 1 + rng.Intn(8)
		cfg.Prefetch.Shadow.TargetQueue = 1 + rng.Intn(8)
		cfg.Prefetch.Shadow.PrefetchTargets = rng.Intn(4) != 0
	}
	if rng.Intn(8) == 0 {
		cfg.PerfectL1I = true
	}
	cfg.L1ISizeBytes = []int{4 * 1024, 8 * 1024, 16 * 1024}[rng.Intn(3)]
	cfg.FTQEntries = []int{4, 16, 32, 64}[rng.Intn(4)]
	cfg.Mem.MemLatency = []int{20, 70, 300}[rng.Intn(3)]
	cfg.Mem.BusCyclesPerLine = 1 + rng.Intn(6)
	return cfg
}

// TestSkipIdleNeverOvershoots is the scheduler's property test: across
// randomized machines, skipIdle must never jump the clock past any
// component's reported next event, never move it at all while some
// component could act this cycle (fetch, the backend, a BPU that could
// predict, a busy prefetcher), and never let the BPU push inside a jump. It
// exists to catch future NextEvent/NextWork/Idle rot: a component whose
// report drifts optimistic shows up here as an overshoot long before it
// corrupts a Result.
func TestSkipIdleNeverOvershoots(t *testing.T) {
	rng := rand.New(rand.NewSource(0xfd1b))
	for trial := 0; trial < 32; trial++ {
		cfg := randSchedConfig(rng)
		im := testImage(t, rng.Int63n(1<<30), 15+rng.Intn(60))
		p := MustNew(cfg, im, oracle.NewWalker(im, rng.Int63n(1<<30)))
		fatal := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("trial %d (%s, ftq=%d, piq=%d, lat=%d): "+format,
				append([]any{trial, cfg.Prefetch.Kind, cfg.FTQEntries,
					cfg.Prefetch.FDP.PIQSize, cfg.Mem.MemLatency}, args...)...)
		}
		for iter := 0; iter < 200_000; iter++ {
			if p.be.Committed >= cfg.MaxInstrs || p.now >= p.cfg.MaxCycles {
				break
			}
			p.Step()
			if p.be.Committed >= cfg.MaxInstrs {
				break
			}

			now := p.now
			stallUntil, stalled := p.fe.StallEvent()
			fetchCanAct := (!stalled || stallUntil <= now) &&
				p.be.Accept() > 0 && p.q.Head() != nil
			beEv := p.be.NextEvent(now)
			pfIdle := p.pf.Idle()
			memEv := p.hier.NextCompletion()
			bpuWork := p.bpu.NextWork(now)
			blocks := p.bpu.Blocks

			p.skipIdle()
			if p.now == now {
				continue
			}
			moved := uint64(p.now - now)
			switch {
			case fetchCanAct:
				fatal("clock moved %d while fetch could act at cycle %d", moved, now)
			case beEv <= now:
				fatal("clock moved %d while the backend could act at cycle %d", moved, now)
			case !pfIdle:
				fatal("clock moved %d while the prefetcher could act at cycle %d", moved, now)
			case bpuWork == now:
				fatal("clock moved %d while the BPU could predict at cycle %d", moved, now)
			case memEv <= now:
				fatal("clock moved %d across a due completion at cycle %d", moved, now)
			case p.now > beEv:
				fatal("jumped to %d past backend event %d", p.now, beEv)
			case p.now > memEv:
				fatal("jumped to %d past completion %d", p.now, memEv)
			case stalled && stallUntil > now && p.now > stallUntil:
				fatal("jumped to %d past stall end %d", p.now, stallUntil)
			case bpuWork > now && p.now > bpuWork:
				fatal("jumped to %d past BPU resume %d", p.now, bpuWork)
			case p.now > p.cfg.MaxCycles:
				fatal("jumped to %d past MaxCycles %d", p.now, p.cfg.MaxCycles)
			}
			if p.bpu.Blocks != blocks {
				fatal("BPU pushed during a skip at cycle %d", now)
			}
		}
	}
}
