package core

import (
	"fmt"
	"strings"

	"fdip/internal/pipe"
	"fdip/internal/prefetch"
	"fdip/internal/stats"
)

// Result is the measurement snapshot of one simulation run.
type Result struct {
	// Prefetcher names the scheme that ran.
	Prefetcher string
	// Cycles and Committed define performance; IPC = Committed/Cycles.
	Cycles    int64
	Committed uint64
	IPC       float64

	// L1-I demand behaviour. DemandAccesses = L1Hits + PFBHits +
	// FullMisses. PFBHits were covered by the prefetch buffer; LateMerges
	// (subset of FullMisses) caught an in-flight prefetch and waited only
	// the remaining latency.
	DemandAccesses, L1Hits, PFBHits, FullMisses, LateMerges uint64
	// MissPKI is (PFBHits+FullMisses) per kilo-instruction — what the
	// miss rate would be with no prefetching of these lines; FullMissPKI
	// counts only misses that actually stalled for the full latency.
	MissPKI, FullMissPKI float64
	// CoveragePct = fraction of would-be misses fully covered by the
	// prefetch buffer; PartialPct adds late in-flight merges.
	CoveragePct, PartialPct float64

	// Prefetch traffic. Issued counts prefetch bus transfers; UsefulPct =
	// (PFBHits + LateMerges) / Issued.
	PrefetchIssued uint64
	UsefulPct      float64
	PortStats      prefetch.PortStats

	// Bus. BusUtilPct is busy-cycle share; DemandBusWait total demand
	// queueing cycles.
	BusUtilPct    float64
	DemandBusWait uint64

	// Branch prediction.
	CondBranches, CTIs       uint64
	MispredictsByKind        [5]uint64
	TotalMispredicts         uint64
	MispredictPKI            float64
	CondAccuracyPct          float64
	FTBHitRatePct            float64
	FTBLookups               uint64
	RASUnderflows            uint64
	BPUBlocks, FTBMissBlocks uint64

	// Front-end cycle breakdown.
	FetchStallCycles, FetchIdleCycles, BackendFullCycles uint64
	BPUFTQFullStalls                                     uint64
	WrongPathFetched, OutOfImageFetched, Squashed        uint64

	// Occupancies.
	FTQOccMean, ROBOccMean float64
	FTQOccP90              int64

	// Storage accounting (bits) for budget tables.
	FTBStorageBytes int
	PFBEntries      int
}

// Finalize snapshots all counters into a Result.
func (p *Processor) Finalize() Result {
	r := Result{
		Prefetcher: p.pf.Name(),
		Cycles:     p.now,
		Committed:  p.be.Committed,
	}
	if r.Cycles > 0 {
		r.IPC = float64(r.Committed) / float64(r.Cycles)
	}

	r.DemandAccesses = p.fe.DemandAccesses
	r.L1Hits = p.fe.L1Hits
	r.PFBHits = p.fe.PFBHits
	r.FullMisses = p.fe.FullMisses
	r.LateMerges = p.fe.LateMerges
	wouldMiss := r.PFBHits + r.FullMisses
	r.MissPKI = stats.PerKilo(wouldMiss, r.Committed)
	r.FullMissPKI = stats.PerKilo(r.FullMisses-r.LateMerges, r.Committed)
	r.CoveragePct = stats.Pct(r.PFBHits, wouldMiss)
	r.PartialPct = stats.Pct(r.PFBHits+r.LateMerges, wouldMiss)

	ps := p.pf.IssueStats()
	r.PortStats = ps
	r.PrefetchIssued = ps.Issued
	r.UsefulPct = stats.Pct(r.PFBHits+r.LateMerges, ps.Issued)

	r.BusUtilPct = 100 * p.hier.BusUtilization(p.now)
	r.DemandBusWait = p.hier.DemandBusWait

	r.CondBranches = p.condBranches
	r.CTIs = p.ctisCommitted
	r.MispredictsByKind = p.be.MispredictsResolved
	for _, m := range r.MispredictsByKind {
		r.TotalMispredicts += m
	}
	r.MispredictPKI = stats.PerKilo(r.TotalMispredicts, r.Committed)
	dirMiss := r.MispredictsByKind[pipe.MissDirection]
	if r.CondBranches > 0 {
		r.CondAccuracyPct = 100 * (1 - float64(dirMiss)/float64(r.CondBranches))
	}
	r.FTBHitRatePct = 100 * p.ftb.HitRate()
	r.FTBLookups = p.ftb.Lookups
	r.RASUnderflows = p.bpu.RASUnderflows
	r.BPUBlocks = p.bpu.Blocks
	r.FTBMissBlocks = p.bpu.FTBMisses

	r.FetchStallCycles = p.fe.StallCycles
	r.FetchIdleCycles = p.fe.IdleNoFTQ
	r.BackendFullCycles = p.fe.BackendFull
	r.BPUFTQFullStalls = p.bpu.FullStalls
	r.WrongPathFetched = p.fe.WrongPath
	r.OutOfImageFetched = p.fe.OutOfImage
	r.Squashed = p.be.Squashed

	if p.occSamples > 0 {
		r.FTQOccMean = float64(p.ftqOccSum) / float64(p.occSamples)
		r.ROBOccMean = float64(p.robOccSum) / float64(p.occSamples)
	}
	r.FTQOccP90 = int64(p.ftqOcc.Quantile(0.9))

	r.FTBStorageBytes = p.ftb.StorageBytes()
	r.PFBEntries = p.pfb.Capacity()
	return r
}

// SpeedupPctOver returns the percentage IPC gain of r over base.
func (r Result) SpeedupPctOver(base Result) float64 {
	if base.IPC == 0 {
		return 0
	}
	return (r.IPC/base.IPC - 1) * 100
}

// String renders a human-readable report.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "prefetcher         %s\n", r.Prefetcher)
	fmt.Fprintf(&b, "cycles             %d\n", r.Cycles)
	fmt.Fprintf(&b, "committed          %d\n", r.Committed)
	fmt.Fprintf(&b, "IPC                %.3f\n", r.IPC)
	fmt.Fprintf(&b, "L1-I would-miss    %.2f /kinstr (full-stall %.2f)\n", r.MissPKI, r.FullMissPKI)
	fmt.Fprintf(&b, "coverage           %.1f%% full, %.1f%% incl. partial\n", r.CoveragePct, r.PartialPct)
	fmt.Fprintf(&b, "prefetches issued  %d (useful %.1f%%)\n", r.PrefetchIssued, r.UsefulPct)
	fmt.Fprintf(&b, "bus utilisation    %.1f%%\n", r.BusUtilPct)
	fmt.Fprintf(&b, "mispredicts        %.2f /kinstr (dir %d, tgt %d, unseen %d, ret %d)\n",
		r.MispredictPKI, r.MispredictsByKind[pipe.MissDirection], r.MispredictsByKind[pipe.MissTarget],
		r.MispredictsByKind[pipe.MissUnseenCTI], r.MispredictsByKind[pipe.MissReturn])
	fmt.Fprintf(&b, "cond accuracy      %.2f%%\n", r.CondAccuracyPct)
	fmt.Fprintf(&b, "FTB hit rate       %.1f%%\n", r.FTBHitRatePct)
	fmt.Fprintf(&b, "FTQ occupancy      mean %.1f, p90 %d\n", r.FTQOccMean, r.FTQOccP90)
	return b.String()
}
