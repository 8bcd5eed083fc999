package simtest

import (
	"testing"

	"fdip/internal/core"
)

// checkIdentities fails tb unless res, the Result of a run of the validated
// config cfg, satisfies the accounting identities the model guarantees
// whatever the workload. Goldens pin what the kernel produces, bugs
// included; these pin what it must produce. Each identity names the Result
// fields it relates, so a failure says which counter drifted.
//
// PFBHits + LateMerges <= PrefetchIssued is not among them: the fetch engine
// counts a late merge each time a demand miss finds an in-flight prefetch,
// so a second demand miss for the same prefetch counts it twice (fuzz seed
// -206 on stream buffers: 15 + 14 > 28).
func checkIdentities(tb testing.TB, cfg core.Config, res core.Result) {
	tb.Helper()
	fail := func(identity string, args ...any) {
		tb.Helper()
		tb.Errorf("result identity %s broken (%s): %v", identity, cfg.Prefetch.Kind, args)
	}
	if got := res.L1Hits + res.PFBHits + res.FullMisses; res.DemandAccesses != got {
		fail("DemandAccesses = L1Hits + PFBHits + FullMisses", res.DemandAccesses, res.L1Hits, res.PFBHits, res.FullMisses)
	}
	if res.LateMerges > res.FullMisses {
		fail("LateMerges <= FullMisses", res.LateMerges, res.FullMisses)
	}
	cycles := uint64(res.Cycles)
	if got := res.FetchStallCycles + res.FetchIdleCycles + res.BackendFullCycles; got > cycles {
		fail("FetchStall + FetchIdle + BackendFull <= Cycles", res.FetchStallCycles, res.FetchIdleCycles, res.BackendFullCycles, res.Cycles)
	}
	if res.BPUFTQFullStalls > cycles {
		fail("BPUFTQFullStalls <= Cycles", res.BPUFTQFullStalls, res.Cycles)
	}
	if res.FTBMissBlocks > res.BPUBlocks {
		fail("FTBMissBlocks <= BPUBlocks", res.FTBMissBlocks, res.BPUBlocks)
	}
	if res.CondBranches > res.CTIs || res.CTIs > res.Committed {
		fail("CondBranches <= CTIs <= Committed", res.CondBranches, res.CTIs, res.Committed)
	}
	if res.TotalMispredicts > res.CTIs {
		fail("TotalMispredicts <= CTIs", res.TotalMispredicts, res.CTIs)
	}
	if !(0 <= res.CoveragePct && res.CoveragePct <= res.PartialPct && res.PartialPct <= 100) {
		fail("0 <= CoveragePct <= PartialPct <= 100", res.CoveragePct, res.PartialPct)
	}
	if !(0 <= res.BusUtilPct && res.BusUtilPct <= 100) {
		fail("0 <= BusUtilPct <= 100", res.BusUtilPct)
	}
	if cfg.Prefetch.Kind == core.PrefetchNone && res.PrefetchIssued != 0 {
		fail("the none prefetcher issues nothing", res.PrefetchIssued)
	}
	if res.ROBOccMean > float64(cfg.Backend.ROBSize) {
		fail("ROBOccMean <= ROBSize", res.ROBOccMean, cfg.Backend.ROBSize)
	}
}
