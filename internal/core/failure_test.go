package core

import (
	"testing"

	"fdip/internal/oracle"
	"fdip/internal/program"
)

// Failure-injection and pathological-configuration tests: the machine must
// stay correct (commit the oracle stream, terminate) under configurations
// chosen to break it.

func pathologicalImage(t testing.TB, seed int64) *program.Image {
	t.Helper()
	p := program.DefaultParams()
	p.Seed = seed
	p.NumFuncs = 120
	im, err := program.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func runCfg(t testing.TB, cfg Config, im *program.Image, seed int64) Result {
	t.Helper()
	pr, err := New(cfg, im, oracle.NewWalker(im, seed))
	if err != nil {
		t.Fatal(err)
	}
	return pr.Run()
}

func TestSaturatedBusStillCompletes(t *testing.T) {
	// A 64-cycle-per-line bus is pathologically slow; prefetches should
	// almost never find an idle slot and demand misses serialize brutally.
	im := pathologicalImage(t, 31)
	cfg := DefaultConfig()
	cfg.MaxInstrs = 60_000
	cfg.Mem.BusCyclesPerLine = 64
	cfg.Prefetch.Kind = PrefetchFDP
	r := runCfg(t, cfg, im, 1)
	if r.Committed < cfg.MaxInstrs {
		t.Fatalf("committed %d", r.Committed)
	}
	if r.BusUtilPct > 100 {
		t.Errorf("bus util %.1f%%", r.BusUtilPct)
	}
}

func TestSingleEntryStructures(t *testing.T) {
	im := pathologicalImage(t, 32)
	cfg := DefaultConfig()
	cfg.MaxInstrs = 50_000
	cfg.FTQEntries = 1
	cfg.PrefetchBufferEntries = 1
	cfg.RASEntries = 1
	cfg.L1ITagPorts = 1
	cfg.FetchWidth = 1
	cfg.Prefetch.Kind = PrefetchFDP
	cfg.Prefetch.FDP.CPF = 1 // conservative with one port: max stall pressure
	cfg.Prefetch.FDP.PIQSize = 1
	r := runCfg(t, cfg, im, 2)
	if r.Committed < cfg.MaxInstrs {
		t.Fatalf("committed %d", r.Committed)
	}
}

func TestStaticPredictorsStillTerminate(t *testing.T) {
	im := pathologicalImage(t, 33)
	for _, name := range []string{"static-taken", "static-nottaken"} {
		cfg := DefaultConfig()
		cfg.MaxInstrs = 30_000
		cfg.PredictorName = name
		r := runCfg(t, cfg, im, 3)
		if r.Committed < cfg.MaxInstrs {
			t.Fatalf("%s: committed %d", name, r.Committed)
		}
		// Static prediction must hurt, not help.
		if r.CondAccuracyPct > 99 {
			t.Errorf("%s: implausible accuracy %.1f%%", name, r.CondAccuracyPct)
		}
	}
}

func TestTinyFTBThrashes(t *testing.T) {
	im := pathologicalImage(t, 34)
	cfg := DefaultConfig()
	cfg.MaxInstrs = 50_000
	cfg.FTB.Sets = 2
	cfg.FTB.Ways = 1
	r := runCfg(t, cfg, im, 4)
	if r.Committed < cfg.MaxInstrs {
		t.Fatalf("committed %d", r.Committed)
	}
	if r.FTBHitRatePct > 60 {
		t.Errorf("2-entry FTB hit rate %.1f%% implausibly high", r.FTBHitRatePct)
	}
}

func TestPerfectL1INeverMisses(t *testing.T) {
	im := pathologicalImage(t, 35)
	cfg := DefaultConfig()
	cfg.MaxInstrs = 50_000
	cfg.PerfectL1I = true
	r := runCfg(t, cfg, im, 5)
	if r.MissPKI != 0 || r.FullMisses != 0 {
		t.Errorf("perfect L1-I missed: MissPKI=%.2f FullMisses=%d", r.MissPKI, r.FullMisses)
	}
	// And it is an upper bound on the real machine.
	real := cfg
	real.PerfectL1I = false
	rr := runCfg(t, real, im, 5)
	if r.IPC < rr.IPC {
		t.Errorf("perfect IPC %.3f < real IPC %.3f", r.IPC, rr.IPC)
	}
}

func TestPerfectBoundDominatesPrefetchers(t *testing.T) {
	im := pathologicalImage(t, 36)
	base := DefaultConfig()
	base.MaxInstrs = 80_000

	perfect := base
	perfect.PerfectL1I = true
	rPerfect := runCfg(t, perfect, im, 6)

	for _, kind := range []PrefetcherKind{PrefetchNextLine, PrefetchStream, PrefetchFDP} {
		cfg := base
		cfg.Prefetch.Kind = kind
		r := runCfg(t, cfg, im, 6)
		if r.IPC > rPerfect.IPC*1.001 {
			t.Errorf("%s IPC %.3f exceeds perfect bound %.3f", kind, r.IPC, rPerfect.IPC)
		}
	}
}

func TestSlowMemoryConvergence(t *testing.T) {
	// 1000-cycle memory: the progress checker must not fire, and the run
	// must still complete.
	im := pathologicalImage(t, 37)
	cfg := DefaultConfig()
	cfg.MaxInstrs = 20_000
	cfg.Mem.MemLatency = 1000
	r := runCfg(t, cfg, im, 7)
	if r.Committed < cfg.MaxInstrs {
		t.Fatalf("committed %d", r.Committed)
	}
	if r.IPC > 1 {
		t.Errorf("IPC %.3f implausible with 1000-cycle memory", r.IPC)
	}
}

func TestKeepPIQOnSquashRuns(t *testing.T) {
	im := pathologicalImage(t, 39)
	cfg := DefaultConfig()
	cfg.MaxInstrs = 50_000
	cfg.Prefetch.Kind = PrefetchFDP
	cfg.Prefetch.FDP.KeepPIQOnSquash = true
	r := runCfg(t, cfg, im, 9)
	if r.Committed < cfg.MaxInstrs {
		t.Fatalf("committed %d", r.Committed)
	}
}

func TestLocalPredictorEndToEnd(t *testing.T) {
	im := pathologicalImage(t, 40)
	cfg := DefaultConfig()
	cfg.MaxInstrs = 60_000
	cfg.PredictorName = "local"
	r := runCfg(t, cfg, im, 10)
	if r.Committed < cfg.MaxInstrs {
		t.Fatalf("committed %d", r.Committed)
	}
	if r.CondAccuracyPct < 70 {
		t.Errorf("local predictor accuracy %.1f%% too low", r.CondAccuracyPct)
	}
}
