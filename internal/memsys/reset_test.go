package memsys

import (
	"math/rand"
	"testing"
)

// memTrace drives a deterministic request/drain mix over the hierarchy and
// records every observable outcome: transfer timing and provenance, bus
// state, and the final counters.
func memTrace(h *Hierarchy, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	var out []uint64
	now := int64(0)
	for i := 0; i < 1200; i++ {
		now += int64(rng.Intn(6))
		switch rng.Intn(4) {
		case 0, 1:
			line := uint64(rng.Intn(1<<10)) * 32
			tr := h.Request(line, rng.Intn(2) == 0, now)
			out = append(out, tr.Line, uint64(tr.Done))
			if tr.FromL2 {
				out = append(out, 1)
			}
			if tr.DemandMerged {
				out = append(out, 2)
			}
		case 2:
			h.DrainCompleted(now, func(tr *Transfer) {
				out = append(out, tr.Line, uint64(tr.Done))
				if tr.Prefetch {
					out = append(out, 3)
				}
			})
		case 3:
			if h.BusIdle(now) {
				out = append(out, 4)
			}
			out = append(out, uint64(h.busFreeAt), uint64(h.PendingCount()))
			if n := h.NextCompletion(); h.PendingCount() > 0 {
				out = append(out, uint64(n))
			}
		}
	}
	return append(out, h.BusBusyCycles, h.DemandRequests, h.PrefetchRequests,
		h.DemandMerges, h.PrefetchMerges, h.DemandBusWait,
		h.L2DemandHits, h.L2DemandMisses, h.L2PrefetchHits, h.L2PrefetchMisses,
		h.l2.Accesses, h.l2.Hits, h.l2.Misses, h.l2.Fills, h.l2.Evictions)
}

// TestHierarchyResetEqualsFresh dirties the hierarchy (in-flight transfers
// left pending, the L2 warm, the lanes and index grown), resets it, and
// requires the exact observable behaviour of a freshly constructed one —
// including the L2's lazy arena drop and the rewound completion lanes.
func TestHierarchyResetEqualsFresh(t *testing.T) {
	cfg := Config{
		LineBytes: 32, L2SizeBytes: 1 << 20, L2Ways: 8,
		L2HitLatency: 10, MemLatency: 50, BusCyclesPerLine: 4,
	}
	dirty := New(cfg)
	memTrace(dirty, 1)
	if dirty.PendingCount() == 0 {
		t.Fatal("dirtying trace left nothing in flight; not a meaningful reset test")
	}
	dirty.Reset()
	if dirty.PendingCount() != 0 || dirty.Inflight(0) {
		t.Fatal("Reset left transfers in flight")
	}
	got := memTrace(dirty, 2)
	want := memTrace(New(cfg), 2)
	if len(got) != len(want) {
		t.Fatalf("trace lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("reset hierarchy diverged from fresh at trace step %d: %d != %d", i, got[i], want[i])
		}
	}
}
