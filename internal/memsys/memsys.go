// Package memsys models everything below the L1-I: the L1↔L2 bus, a unified
// L2, and main memory.
//
// The bus is the contended resource at the heart of the paper's filtering
// story. It is modelled as a single slotted channel: every line transfer
// occupies it for BusCyclesPerLine cycles. Demand misses reserve the bus
// unconditionally (queueing behind earlier transfers); prefetchers are
// expected to check BusIdle and issue only into idle slots, which is how the
// original design prioritised demand traffic.
package memsys

import (
	"fmt"
	"math"

	"fdip/internal/cache"
)

// Config sizes the hierarchy below the L1-I.
type Config struct {
	// LineBytes is the transfer unit (must match the L1-I line size).
	LineBytes int
	// L2SizeBytes and L2Ways size the unified L2.
	L2SizeBytes int
	L2Ways      int
	// L2HitLatency is the request-to-data latency for an L2 hit.
	L2HitLatency int
	// MemLatency is the additional latency of an L2 miss.
	MemLatency int
	// BusCyclesPerLine is the bus occupancy per line transfer
	// (line size / bus width).
	BusCyclesPerLine int
}

// DefaultConfig matches the paper-inspired baseline: 1MB 8-way L2 with a
// 12-cycle hit, 70 additional cycles to memory, and an 8-byte bus moving a
// 32-byte line in 4 cycles.
func DefaultConfig() Config {
	return Config{
		LineBytes:        32,
		L2SizeBytes:      1 << 20,
		L2Ways:           8,
		L2HitLatency:     12,
		MemLatency:       70,
		BusCyclesPerLine: 4,
	}
}

// Transfer is one in-flight line movement from L2/memory toward the L1 side.
type Transfer struct {
	// Line is the line-aligned address.
	Line uint64
	// Done is the cycle the data arrives at the requester.
	Done int64
	// Prefetch records whether the original requester was a prefetcher.
	Prefetch bool
	// DemandMerged is set when a demand miss arrived while the transfer
	// was in flight (a late but partially useful prefetch).
	DemandMerged bool
	// FromL2 reports whether the line hit in the L2.
	FromL2 bool

	// seq orders completions with equal Done cycles (request order), making
	// the completion order fully deterministic.
	seq uint64
}

// Completion lanes. A transfer is done at Done = start + latency. The bus
// starts transfers in strictly increasing cycles (start = max(now,
// busFreeAt), then busFreeAt = start + BusCyclesPerLine), and latency is one
// of two constants: an L2 hit's or an L2 miss's. Within one latency class,
// then, transfers complete in request order, with strictly increasing Done
// and seq. So the in-flight transfers live in two FIFO lanes, one per class,
// each already sorted by (Done, seq), and the earlier of the two lane heads
// is exactly the transfer a min-heap keyed by (Done, seq) would pop.
const (
	laneHit  = 0
	laneMiss = 1

	// laneBit tags a lane-miss slot in the in-flight index.
	laneBit = 1 << 30
)

// lane is a FIFO ring of in-flight transfers of one latency class.
type lane struct {
	ring    []Transfer // power-of-two length; live: head, head+1, ... (mod len)
	head, n int
}

// front returns the lane's oldest transfer, or nil when it is empty.
func (l *lane) front() *Transfer {
	if l.n == 0 {
		return nil
	}
	return &l.ring[l.head]
}

// Hierarchy is the L2 + bus + memory model.
//
// In-flight transfers live in two completion lanes (see laneHit), so the
// next completion is the earlier of two ring heads and draining costs O(1)
// per completed transfer. An exact line index over the lanes answers
// Inflight and finds the transfer a request merges into. The rings and the
// index keep their storage across completions and Reset, so the
// steady-state hot path performs no heap allocation.
type Hierarchy struct {
	cfg      Config
	l2       *cache.Cache
	lineMask uint64

	busFreeAt int64
	lanes     [2]lane
	inflight  cache.LineIndex // line → ring slot, laneBit set for laneMiss
	nextDone  int64           // the earlier lane head's Done; MaxInt64 when idle
	seq       uint64

	// BusBusyCycles accumulates bus occupancy for utilisation reports.
	BusBusyCycles uint64
	// DemandRequests/PrefetchRequests count new transfers by requester;
	// DemandMerges counts demand misses absorbed by an in-flight prefetch,
	// PrefetchMerges the reverse.
	DemandRequests, PrefetchRequests uint64
	DemandMerges, PrefetchMerges     uint64
	// DemandBusWait accumulates cycles demand transfers waited for the bus.
	DemandBusWait uint64
	// L2DemandHits/L2DemandMisses and the prefetch twins split L2 outcomes
	// by requester.
	L2DemandHits, L2DemandMisses     uint64
	L2PrefetchHits, L2PrefetchMisses uint64
}

// New builds the hierarchy. The configuration is taken as given: every
// field positive and the L2 geometry one Check accepts
// (core.Config.Validate ensures it).
func New(cfg Config) *Hierarchy {
	return &Hierarchy{
		cfg:      cfg,
		l2:       cache.New(cfg.l2()),
		lineMask: ^uint64(cfg.LineBytes - 1),
		inflight: cache.NewLineIndex(16),
		nextDone: math.MaxInt64,
	}
}

// l2 is the L2's geometry.
func (c Config) l2() cache.Config {
	return cache.Config{
		SizeBytes: c.L2SizeBytes,
		Ways:      c.L2Ways,
		LineBytes: c.LineBytes,
		TagPorts:  4,
	}
}

// Check reports whether New accepts the configuration's L2 geometry: it
// must be one cache.New builds.
func (c Config) Check() error {
	if err := c.l2().Check(); err != nil {
		return fmt.Errorf("memsys: L2: %w", err)
	}
	return nil
}

// BusIdle reports whether a new transfer could start immediately at cycle
// now. Prefetchers must check this before issuing.
func (h *Hierarchy) BusIdle(now int64) bool { return h.busFreeAt <= now }

// Inflight reports whether the line holding addr is being transferred.
func (h *Hierarchy) Inflight(addr uint64) bool {
	return h.inflight.Has(addr & h.lineMask)
}

// Request starts (or merges into) a transfer of the given line at cycle now.
// Demand requests always queue; prefetch requests should only be made when
// BusIdle(now) is true, but the model tolerates queued prefetches for
// experiments that deliberately ignore the idle rule. The returned transfer
// lives in a completion lane: it is valid only until the next Request or
// DrainCompleted.
func (h *Hierarchy) Request(line uint64, prefetch bool, now int64) *Transfer {
	line &= h.lineMask
	if v, ok := h.inflight.Get(line); ok {
		t := &h.lanes[v/laneBit].ring[v%laneBit]
		if !prefetch {
			if t.Prefetch && !t.DemandMerged {
				t.DemandMerged = true
				h.DemandMerges++
			}
		} else {
			h.PrefetchMerges++
		}
		return t
	}
	start := now
	if h.busFreeAt > start {
		if !prefetch {
			h.DemandBusWait += uint64(h.busFreeAt - start)
		}
		start = h.busFreeAt
	}
	h.busFreeAt = start + int64(h.cfg.BusCyclesPerLine)
	h.BusBusyCycles += uint64(h.cfg.BusCyclesPerLine)

	hit := h.l2.Access(line)
	lat := h.cfg.L2HitLatency + h.cfg.BusCyclesPerLine
	li := laneHit
	if !hit {
		lat += h.cfg.MemLatency
		li = laneMiss
		h.l2.Fill(line, prefetch)
	}
	t := h.push(li, line)
	*t = Transfer{
		Line:     line,
		Done:     start + int64(lat),
		Prefetch: prefetch,
		FromL2:   hit,
		seq:      h.seq,
	}
	h.seq++
	h.nextDone = min(h.nextDone, t.Done)
	if prefetch {
		h.PrefetchRequests++
		if hit {
			h.L2PrefetchHits++
		} else {
			h.L2PrefetchMisses++
		}
	} else {
		h.DemandRequests++
		if hit {
			h.L2DemandHits++
		} else {
			h.L2DemandMisses++
		}
	}
	return t
}

// push appends a transfer of line to lane li, indexes it, and returns its
// slot for the caller to fill. A full ring doubles, re-indexing the
// transfers it moves.
func (h *Hierarchy) push(li int, line uint64) *Transfer {
	l := &h.lanes[li]
	if l.n == len(l.ring) {
		ring := make([]Transfer, max(8, 2*len(l.ring)))
		for i := range l.n {
			ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
			h.inflight.Put(ring[i].Line, li*laneBit+i)
		}
		l.ring, l.head = ring, 0
	}
	slot := (l.head + l.n) & (len(l.ring) - 1)
	l.n++
	h.inflight.Put(line, li*laneBit+slot)
	return &l.ring[slot]
}

// next returns the lane whose head completes first — the earlier head by
// (Done, seq) — or nil when nothing is in flight.
func (h *Hierarchy) next() *lane {
	a, b := &h.lanes[laneHit], &h.lanes[laneMiss]
	ta, tb := a.front(), b.front()
	switch {
	case tb == nil:
		if ta == nil {
			return nil
		}
		return a
	case ta == nil:
		return b
	case tb.Done < ta.Done || tb.Done == ta.Done && tb.seq < ta.seq:
		return b
	}
	return a
}

// DrainCompleted delivers every transfer finished at or before now, in
// completion order (Done, then request order), retiring each from its lane
// once deliver returns. The *Transfer passed to deliver is valid only for
// the duration of the call, and deliver must not call Request — the
// zero-allocation delivery path for the cycle kernel. A cycle with nothing
// to deliver costs one comparison.
func (h *Hierarchy) DrainCompleted(now int64, deliver func(*Transfer)) {
	if now >= h.nextDone {
		h.drain(now, deliver)
	}
}

// drain is DrainCompleted's delivery loop.
func (h *Hierarchy) drain(now int64, deliver func(*Transfer)) {
	for l := h.next(); l != nil; l = h.next() {
		t := &l.ring[l.head]
		if t.Done > now {
			h.nextDone = t.Done
			return
		}
		h.inflight.Delete(t.Line)
		deliver(t)
		l.head = (l.head + 1) & (len(l.ring) - 1)
		l.n--
	}
	h.nextDone = math.MaxInt64
}

// Reset restores the pristine just-constructed state: the L2 cold, the bus
// free at cycle 0, no transfer in flight, and every counter zeroed. The
// lanes' rings and the in-flight index keep their storage, so a reset
// machine allocates nothing to reach steady state again.
func (h *Hierarchy) Reset() {
	h.l2.Reset()
	h.busFreeAt = 0
	h.lanes[laneHit].head, h.lanes[laneHit].n = 0, 0
	h.lanes[laneMiss].head, h.lanes[laneMiss].n = 0, 0
	h.inflight.Reset()
	h.nextDone = math.MaxInt64
	h.seq = 0
	h.BusBusyCycles = 0
	h.DemandRequests, h.PrefetchRequests = 0, 0
	h.DemandMerges, h.PrefetchMerges = 0, 0
	h.DemandBusWait = 0
	h.L2DemandHits, h.L2DemandMisses = 0, 0
	h.L2PrefetchHits, h.L2PrefetchMisses = 0, 0
}

// NextCompletion returns the cycle the earliest in-flight transfer finishes,
// or math.MaxInt64 when nothing is in flight — the memory system's
// contribution to the core's next-interesting-cycle schedule.
func (h *Hierarchy) NextCompletion() int64 { return h.nextDone }

// BusUtilization returns the fraction of the first totalCycles the bus was
// busy.
func (h *Hierarchy) BusUtilization(totalCycles int64) float64 {
	if totalCycles <= 0 {
		return 0
	}
	u := float64(h.BusBusyCycles) / float64(totalCycles)
	if u > 1 {
		u = 1
	}
	return u
}
