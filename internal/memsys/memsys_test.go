package memsys

import (
	"testing"
)

func hier() *Hierarchy {
	return New(Config{
		LineBytes:        32,
		L2SizeBytes:      1 << 16,
		L2Ways:           4,
		L2HitLatency:     10,
		MemLatency:       50,
		BusCyclesPerLine: 4,
	})
}

// PendingCount returns the number of in-flight transfers.
func (h *Hierarchy) PendingCount() int { return h.lanes[laneHit].n + h.lanes[laneMiss].n }

func TestColdMissLatency(t *testing.T) {
	h := hier()
	tr := h.Request(0x1000, false, 100)
	// start 100, bus 4, L2 hit lat 10 + mem 50 → done 100+10+50+4 = 164
	if tr.Done != 164 {
		t.Errorf("Done = %d, want 164", tr.Done)
	}
	if tr.FromL2 {
		t.Error("cold miss reported as L2 hit")
	}
	if h.L2DemandMisses != 1 {
		t.Errorf("L2DemandMisses = %d", h.L2DemandMisses)
	}
}

func TestL2HitLatency(t *testing.T) {
	h := hier()
	t1 := h.Request(0x1000, false, 0)
	h.DrainCompleted(t1.Done, func(*Transfer) {})
	tr := h.Request(0x1000, false, 1000)
	if tr.Done != 1000+10+4 {
		t.Errorf("L2-hit Done = %d, want 1014", tr.Done)
	}
	if !tr.FromL2 {
		t.Error("second access missed L2")
	}
}

func TestBusSerialization(t *testing.T) {
	h := hier()
	a := h.Request(0x1000, false, 0).Done
	b := h.Request(0x2000, false, 0).Done
	// b's bus slot starts when a's ends (cycle 4).
	if b != a+4 {
		t.Errorf("b.Done = %d, want %d", b, a+4)
	}
	if h.DemandBusWait != 4 {
		t.Errorf("DemandBusWait = %d", h.DemandBusWait)
	}
	if h.BusBusyCycles != 8 {
		t.Errorf("BusBusyCycles = %d", h.BusBusyCycles)
	}
}

func TestBusIdle(t *testing.T) {
	h := hier()
	if !h.BusIdle(0) {
		t.Error("fresh bus not idle")
	}
	h.Request(0x1000, false, 0)
	if h.BusIdle(3) {
		t.Error("bus idle during transfer")
	}
	if !h.BusIdle(4) {
		t.Error("bus not idle after transfer slot")
	}
}

func TestDemandMergesIntoPrefetch(t *testing.T) {
	h := hier()
	p := h.Request(0x1000, true, 0)
	d := h.Request(0x1000, false, 2)
	if d != p {
		t.Error("demand did not merge into in-flight prefetch")
	}
	if !p.DemandMerged {
		t.Error("DemandMerged not set")
	}
	if h.DemandMerges != 1 || h.DemandRequests != 0 {
		t.Errorf("merges=%d demandReqs=%d", h.DemandMerges, h.DemandRequests)
	}
	// Prefetch merging into anything counts separately.
	h.Request(0x1000, true, 3)
	if h.PrefetchMerges != 1 {
		t.Errorf("PrefetchMerges = %d", h.PrefetchMerges)
	}
}

func TestDrainCompletedOrderAndRemoval(t *testing.T) {
	h := hier()
	// Warm 0x2000 into L2 so it completes fast later.
	w := h.Request(0x2000, false, 0)
	h.DrainCompleted(w.Done, func(*Transfer) {})

	slowDone := h.Request(0x1000, false, 200).Done // cold: done 264
	fastDone := h.Request(0x2000, false, 200).Done // L2 hit, bus queued: start 204 → done 218
	if fastDone >= slowDone {
		t.Fatalf("expected out-of-order completion: fast=%d slow=%d", fastDone, slowDone)
	}
	n := 0
	h.DrainCompleted(fastDone, func(tr *Transfer) {
		if n++; tr.Line != 0x2000 || tr.Done != fastDone {
			t.Errorf("DrainCompleted delivered line %#x before the fast transfer", tr.Line)
		}
	})
	if n != 1 {
		t.Fatalf("DrainCompleted delivered %d transfers", n)
	}
	if h.Inflight(0x2000) {
		t.Error("completed transfer still inflight")
	}
	if !h.Inflight(0x1000) {
		t.Error("pending transfer dropped")
	}
	n = 0
	h.DrainCompleted(slowDone, func(tr *Transfer) {
		if n++; tr.Line != 0x1000 || tr.Done != slowDone {
			t.Errorf("second DrainCompleted delivered line %#x, not the slow transfer", tr.Line)
		}
	})
	if n != 1 {
		t.Fatalf("second DrainCompleted delivered %d", n)
	}
	if h.PendingCount() != 0 {
		t.Errorf("PendingCount = %d", h.PendingCount())
	}
}

func TestLineAlignment(t *testing.T) {
	h := hier()
	a := h.Request(0x1004, false, 0)
	b := h.Request(0x101c, false, 0)
	if a != b {
		t.Error("same-line requests created two transfers")
	}
}

// TestInflightLineAligned: Inflight answers for any address in a transfer's
// line, exactly as Request merges any address in it.
func TestInflightLineAligned(t *testing.T) {
	h := hier()
	h.Request(0x1000, true, 0)
	for _, addr := range []uint64{0x1000, 0x1004, 0x101f} {
		if !h.Inflight(addr) {
			t.Errorf("Inflight(%#x) = false with line 0x1000 in flight", addr)
		}
	}
	if h.Inflight(0x1020) || h.Inflight(0xfff) {
		t.Error("Inflight reported a neighbouring line")
	}
	h.Request(0x101c, false, 1)
	if h.DemandMerges != 1 || h.PendingCount() != 1 {
		t.Errorf("demand at 0x101c: merges=%d pending=%d; want one merge into the prefetch", h.DemandMerges, h.PendingCount())
	}
}

func TestPrefetchFillsL2(t *testing.T) {
	h := hier()
	p := h.Request(0x1000, true, 0)
	h.DrainCompleted(p.Done, func(*Transfer) {})
	d := h.Request(0x1000, false, 500)
	if !d.FromL2 {
		t.Error("prefetch did not install line in L2")
	}
	if h.L2PrefetchMisses != 1 || h.L2DemandHits != 1 {
		t.Errorf("l2pm=%d l2dh=%d", h.L2PrefetchMisses, h.L2DemandHits)
	}
}

func TestBusUtilization(t *testing.T) {
	h := hier()
	h.Request(0x1000, false, 0)
	h.Request(0x2000, false, 0)
	if got := h.BusUtilization(16); got != 0.5 {
		t.Errorf("BusUtilization = %v", got)
	}
	if got := h.BusUtilization(0); got != 0 {
		t.Errorf("BusUtilization(0) = %v", got)
	}
	if got := h.BusUtilization(4); got != 1 {
		t.Errorf("BusUtilization clamp = %v", got)
	}
}
