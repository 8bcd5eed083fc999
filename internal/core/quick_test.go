package core

import (
	"math/rand"
	"testing"

	"fdip/internal/oracle"
	"fdip/internal/prefetch"
	"fdip/internal/program"
)

// TestQuickRandomConfigsHoldInvariants fuzzes machine geometry: under any
// legal configuration the processor must (1) terminate, (2) commit exactly
// the oracle stream, (3) keep derived statistics internally consistent, and
// (4) never let a prefetcher exceed the committed-work invariants.
func TestQuickRandomConfigsHoldInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized end-to-end sweep")
	}
	rng := rand.New(rand.NewSource(77))

	p := program.DefaultParams()
	p.Seed = 99
	p.NumFuncs = 150
	im, err := program.Generate(p)
	if err != nil {
		t.Fatal(err)
	}

	pow2 := func(choices ...int) int { return choices[rng.Intn(len(choices))] }
	kinds := []PrefetcherKind{PrefetchNone, PrefetchNextLine, PrefetchStream, PrefetchFDP}

	const trials = 24
	for trial := 0; trial < trials; trial++ {
		cfg := DefaultConfig()
		cfg.MaxInstrs = 15_000
		cfg.L1ISizeBytes = pow2(2048, 4096, 16384, 65536)
		cfg.L1IWays = pow2(1, 2, 4)
		cfg.LineBytes = pow2(16, 32, 64)
		cfg.L1ITagPorts = 1 + rng.Intn(3)
		cfg.PrefetchBufferEntries = rng.Intn(40)
		cfg.FTQEntries = 1 + rng.Intn(48)
		cfg.FTB.Sets = pow2(16, 64, 256, 1024)
		cfg.FTB.Ways = pow2(1, 2, 4)
		cfg.FTB.BlockOriented = rng.Intn(2) == 0
		cfg.PredictorName = []string{"hybrid", "gshare", "bimodal", "local", "static-taken"}[rng.Intn(5)]
		cfg.RASEntries = 1 + rng.Intn(32)
		cfg.FetchWidth = 1 + rng.Intn(8)
		cfg.Mem.MemLatency = 10 + rng.Intn(200)
		cfg.Mem.BusCyclesPerLine = 1 + rng.Intn(8)
		cfg.Prefetch.Kind = kinds[rng.Intn(len(kinds))]
		cfg.Prefetch.FDP.CPF = prefetch.CPFMode(rng.Intn(3))
		cfg.Prefetch.FDP.RemoveCPF = rng.Intn(2) == 0
		cfg.Prefetch.FDP.PIQSize = 1 + rng.Intn(32)
		cfg.Prefetch.FDP.SkipHead = rng.Intn(3)
		cfg.Backend.ROBSize = pow2(16, 32, 64, 128)
		cfg.Backend.IssueWidth = 1 + rng.Intn(8)
		cfg.Backend.CommitWidth = 1 + rng.Intn(8)

		seed := int64(trial)
		pr, err := New(cfg, im, oracle.NewWalker(im, seed))
		if err != nil {
			t.Fatalf("trial %d: New: %v (cfg %+v)", trial, err, cfg)
		}

		// Record the committed PC stream and compare against a raw walker.
		ref := oracle.NewWalker(im, seed)
		mismatch := false
		inner := pr.be.OnCommitRange
		ar := pr.be.Arena()
		pr.be.OnCommitRange = func(first uint32, cnt int) {
			ai := first
			for i := 0; i < cnt; i++ {
				var rec oracle.Record
				ref.NextInto(&rec)
				if ar.At(ai).PC != rec.PC {
					mismatch = true
				}
				ai = ar.Next(ai)
			}
			inner(first, cnt)
		}
		res := pr.Run()

		if mismatch {
			t.Fatalf("trial %d: commit stream diverged from oracle (cfg %+v)", trial, cfg)
		}
		if res.Committed < cfg.MaxInstrs {
			t.Fatalf("trial %d: committed %d < %d (cfg %+v)", trial, res.Committed, cfg.MaxInstrs, cfg)
		}
		if res.IPC <= 0 || res.IPC > float64(cfg.FetchWidth) {
			t.Fatalf("trial %d: IPC %.3f out of range (cfg %+v)", trial, res.IPC, cfg)
		}
		if res.BusUtilPct < 0 || res.BusUtilPct > 100 {
			t.Fatalf("trial %d: bus %.1f%%", trial, res.BusUtilPct)
		}
		if res.CoveragePct < 0 || res.CoveragePct > 100 || res.PartialPct < res.CoveragePct {
			t.Fatalf("trial %d: coverage %.1f/%.1f", trial, res.CoveragePct, res.PartialPct)
		}
		if res.DemandAccesses != res.L1Hits+res.PFBHits+res.FullMisses {
			t.Fatalf("trial %d: access accounting broken: %d != %d+%d+%d",
				trial, res.DemandAccesses, res.L1Hits, res.PFBHits, res.FullMisses)
		}
		if res.LateMerges > res.FullMisses {
			t.Fatalf("trial %d: LateMerges %d > FullMisses %d", trial, res.LateMerges, res.FullMisses)
		}
		if cfg.Prefetch.Kind == PrefetchNone && res.PrefetchIssued != 0 {
			t.Fatalf("trial %d: phantom prefetches", trial)
		}
		if cfg.PrefetchBufferEntries == 0 && res.PFBHits != 0 {
			t.Fatalf("trial %d: PFB hits with zero-entry buffer", trial)
		}
	}
}
