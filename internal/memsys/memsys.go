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

func (c *Config) setDefaults() {
	d := DefaultConfig()
	if c.LineBytes <= 0 {
		c.LineBytes = d.LineBytes
	}
	if c.L2SizeBytes <= 0 {
		c.L2SizeBytes = d.L2SizeBytes
	}
	if c.L2Ways <= 0 {
		c.L2Ways = d.L2Ways
	}
	if c.L2HitLatency <= 0 {
		c.L2HitLatency = d.L2HitLatency
	}
	if c.MemLatency <= 0 {
		c.MemLatency = d.MemLatency
	}
	if c.BusCyclesPerLine <= 0 {
		c.BusCyclesPerLine = d.BusCyclesPerLine
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
	// the completion queue fully deterministic.
	seq uint64
}

// Hierarchy is the L2 + bus + memory model.
//
// In-flight transfers live in a min-heap keyed by (Done, request order), so
// draining completions is O(log n) per completed transfer and free when
// nothing has completed. Transfer records are pooled: DrainCompleted recycles
// each record after delivery, so the steady-state hot path performs no heap
// allocation.
type Hierarchy struct {
	cfg Config
	l2  *cache.Cache

	busFreeAt int64
	inflight  map[uint64]*Transfer
	queue     []*Transfer // min-heap on (Done, seq)
	free      []*Transfer // recycled Transfer records
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

// New builds the hierarchy.
func New(cfg Config) *Hierarchy {
	cfg.setDefaults()
	return &Hierarchy{
		cfg:      cfg,
		l2:       cache.New(cfg.l2()),
		inflight: make(map[uint64]*Transfer),
	}
}

// l2 is the L2's geometry.
func (c Config) l2() cache.Config {
	return cache.Config{
		SizeBytes: c.L2SizeBytes,
		Ways:      c.L2Ways,
		LineBytes: c.LineBytes,
		Repl:      cache.LRU,
		TagPorts:  4,
	}
}

// Check reports whether New accepts the configuration: after defaults, the
// L2 geometry must be one cache.New builds.
func (c Config) Check() error {
	c.setDefaults()
	if err := c.l2().Check(); err != nil {
		return fmt.Errorf("memsys: L2: %w", err)
	}
	return nil
}

// Config returns the (normalised) configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// L2 exposes the unified L2 for statistics.
func (h *Hierarchy) L2() *cache.Cache { return h.l2 }

// BusIdle reports whether a new transfer could start immediately at cycle
// now. Prefetchers must check this before issuing.
func (h *Hierarchy) BusIdle(now int64) bool { return h.busFreeAt <= now }

// Inflight reports whether the line is already being transferred.
func (h *Hierarchy) Inflight(line uint64) bool {
	_, ok := h.inflight[line]
	return ok
}

// Request starts (or merges into) a transfer of the given line at cycle now.
// Demand requests always queue; prefetch requests should only be made when
// BusIdle(now) is true, but the model tolerates queued prefetches for
// experiments that deliberately ignore the idle rule.
func (h *Hierarchy) Request(line uint64, prefetch bool, now int64) *Transfer {
	line = line &^ uint64(h.cfg.LineBytes-1)
	if t, ok := h.inflight[line]; ok {
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
	if !hit {
		lat += h.cfg.MemLatency
		h.l2.Fill(line, prefetch)
	}
	t := h.alloc()
	*t = Transfer{
		Line:     line,
		Done:     start + int64(lat),
		Prefetch: prefetch,
		FromL2:   hit,
		seq:      h.seq,
	}
	h.seq++
	h.inflight[line] = t
	h.push(t)
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

// alloc takes a Transfer record from the free pool, or makes one.
func (h *Hierarchy) alloc() *Transfer {
	if n := len(h.free); n > 0 {
		t := h.free[n-1]
		h.free = h.free[:n-1]
		return t
	}
	return new(Transfer)
}

// transferLess orders the completion heap: earliest Done first, request
// order breaking ties.
func transferLess(a, b *Transfer) bool {
	return a.Done < b.Done || (a.Done == b.Done && a.seq < b.seq)
}

// push inserts a transfer into the completion heap.
func (h *Hierarchy) push(t *Transfer) {
	h.queue = append(h.queue, t)
	i := len(h.queue) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !transferLess(h.queue[i], h.queue[parent]) {
			break
		}
		h.queue[i], h.queue[parent] = h.queue[parent], h.queue[i]
		i = parent
	}
}

// popCompleted removes and returns the earliest transfer finished at or
// before now, or nil when none has.
func (h *Hierarchy) popCompleted(now int64) *Transfer {
	if len(h.queue) == 0 || h.queue[0].Done > now {
		return nil
	}
	t := h.queue[0]
	last := len(h.queue) - 1
	h.queue[0] = h.queue[last]
	h.queue[last] = nil
	h.queue = h.queue[:last]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.queue) && transferLess(h.queue[l], h.queue[smallest]) {
			smallest = l
		}
		if r < len(h.queue) && transferLess(h.queue[r], h.queue[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.queue[i], h.queue[smallest] = h.queue[smallest], h.queue[i]
		i = smallest
	}
	delete(h.inflight, t.Line)
	return t
}

// DrainCompleted delivers every transfer finished at or before now, in
// completion order, then recycles its record. The *Transfer passed to deliver
// is valid only for the duration of the call — the zero-allocation delivery
// path for the cycle kernel.
func (h *Hierarchy) DrainCompleted(now int64, deliver func(*Transfer)) {
	for {
		t := h.popCompleted(now)
		if t == nil {
			return
		}
		deliver(t)
		h.free = append(h.free, t)
	}
}

// Reset restores the pristine just-constructed state: the L2 cold, the bus
// free at cycle 0, no transfer in flight, and every counter zeroed. The
// completion heap's records are recycled into the transfer free list and the
// heap/map backing storage is retained, so a reset machine allocates nothing
// to reach steady state again.
func (h *Hierarchy) Reset() {
	h.l2.Reset()
	h.busFreeAt = 0
	clear(h.inflight)
	for i, t := range h.queue {
		h.free = append(h.free, t)
		h.queue[i] = nil
	}
	h.queue = h.queue[:0]
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
func (h *Hierarchy) NextCompletion() int64 {
	if len(h.queue) == 0 {
		return math.MaxInt64
	}
	return h.queue[0].Done
}

// BusFreeAt returns the first cycle a new transfer could start.
func (h *Hierarchy) BusFreeAt() int64 { return h.busFreeAt }

// PendingCount returns the number of in-flight transfers.
func (h *Hierarchy) PendingCount() int { return len(h.queue) }

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

// String describes the hierarchy.
func (h *Hierarchy) String() string {
	return fmt.Sprintf("L2 %s, %d-cycle hit, +%d to memory, %d-cycle bus/line",
		h.l2, h.cfg.L2HitLatency, h.cfg.MemLatency, h.cfg.BusCyclesPerLine)
}
