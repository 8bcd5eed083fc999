package memsys

import (
	"math"
	"testing"

	"fdip/internal/cache"
)

// refHierarchy is the reference model FuzzHierarchyReference checks
// Hierarchy against: the layout Hierarchy used before its completion lanes.
// In-flight transfers are pooled records in a min-heap keyed by (Done,
// request order), found by line through a Go map, and recycled through a
// free list after delivery. Its Inflight line-aligns like Hierarchy's.
type refHierarchy struct {
	cfg Config
	l2  *cache.Cache

	busFreeAt int64
	inflight  map[uint64]*Transfer
	queue     []*Transfer // min-heap on (Done, seq)
	free      []*Transfer
	seq       uint64

	BusBusyCycles                    uint64
	DemandRequests, PrefetchRequests uint64
	DemandMerges, PrefetchMerges     uint64
	DemandBusWait                    uint64
	L2DemandHits, L2DemandMisses     uint64
	L2PrefetchHits, L2PrefetchMisses uint64
}

func newRefHierarchy(cfg Config) *refHierarchy {
	return &refHierarchy{cfg: cfg, l2: cache.New(cfg.l2()), inflight: make(map[uint64]*Transfer)}
}

func (h *refHierarchy) BusIdle(now int64) bool { return h.busFreeAt <= now }

func (h *refHierarchy) Inflight(addr uint64) bool {
	_, ok := h.inflight[addr&^uint64(h.cfg.LineBytes-1)]
	return ok
}

func (h *refHierarchy) Request(line uint64, prefetch bool, now int64) *Transfer {
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
	var t *Transfer
	if n := len(h.free); n > 0 {
		t, h.free = h.free[n-1], h.free[:n-1]
	} else {
		t = new(Transfer)
	}
	*t = Transfer{Line: line, Done: start + int64(lat), Prefetch: prefetch, FromL2: hit, seq: h.seq}
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

func refLess(a, b *Transfer) bool {
	return a.Done < b.Done || (a.Done == b.Done && a.seq < b.seq)
}

func (h *refHierarchy) push(t *Transfer) {
	h.queue = append(h.queue, t)
	for i := len(h.queue) - 1; i > 0; {
		parent := (i - 1) / 2
		if !refLess(h.queue[i], h.queue[parent]) {
			break
		}
		h.queue[i], h.queue[parent] = h.queue[parent], h.queue[i]
		i = parent
	}
}

func (h *refHierarchy) popCompleted(now int64) *Transfer {
	if len(h.queue) == 0 || h.queue[0].Done > now {
		return nil
	}
	t := h.queue[0]
	last := len(h.queue) - 1
	h.queue[0] = h.queue[last]
	h.queue[last] = nil
	h.queue = h.queue[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.queue) && refLess(h.queue[l], h.queue[smallest]) {
			smallest = l
		}
		if r < len(h.queue) && refLess(h.queue[r], h.queue[smallest]) {
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

func (h *refHierarchy) DrainCompleted(now int64, deliver func(*Transfer)) {
	for t := h.popCompleted(now); t != nil; t = h.popCompleted(now) {
		deliver(t)
		h.free = append(h.free, t)
	}
}

func (h *refHierarchy) Reset() {
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

func (h *refHierarchy) NextCompletion() int64 {
	if len(h.queue) == 0 {
		return math.MaxInt64
	}
	return h.queue[0].Done
}

func (h *refHierarchy) PendingCount() int { return len(h.queue) }

// fuzzHierConfig derives a hierarchy from one byte: a 512-byte 2-way L2,
// so the fuzzer's 32 lines crowd its 8 sets and both hit and evict, and bus
// and latency constants from the low bits. Bit 7 gives the lanes latencies a multiple
// of the bus slot apart, so a hit requested after a miss can complete in
// the same cycle as it — the equal-Done tie across lanes.
func fuzzHierConfig(b byte) Config {
	bus := 1 + int(b&3)
	hit := 1 + int(b>>2&7)
	mem := 1 + int(b>>5&3)*17
	if b&0x80 != 0 {
		mem = bus * (1 + int(b>>5&3))
	}
	return Config{LineBytes: 32, L2SizeBytes: 512, L2Ways: 2, L2HitLatency: hit, MemLatency: mem, BusCyclesPerLine: bus}
}

// FuzzHierarchyReference drives Hierarchy and refHierarchy through the same
// operation sequence and requires identical results, delivery order and
// counters after every step. data[0] picks the configuration
// (fuzzHierConfig); every further two bytes are one operation: an opcode
// byte (low three bits the operation, bit 3 the requester, the top four bits
// how many cycles the clock advances first) and a line byte (its low five
// bits the line, so requests merge and the L2 both hits and misses; its top
// three bits an offset within the line). Requests may queue on a busy bus,
// prefetches included. The committed corpus (testdata/fuzz/
// FuzzHierarchyReference) mixes L2 hits and misses, merges, queued
// prefetches, equal-Done ties across the lanes and mid-sequence resets.
func FuzzHierarchyReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		cfg := fuzzHierConfig(data[0])
		got, want := New(cfg), newRefHierarchy(cfg)
		now := int64(0)
		var gd, wd []Transfer
		for step, op := 0, data[1:]; len(op) >= 2; step, op = step+1, op[2:] {
			now += int64(op[0] >> 4)
			addr := uint64(op[1]&31)<<5 | uint64(op[1]>>5)<<2
			var g, w [3]int64
			switch op[0] & 7 {
			case 0, 1, 2:
				pf := op[0]&8 != 0
				gt, wt := got.Request(addr, pf, now), want.Request(addr, pf, now)
				if *gt != *wt {
					t.Fatalf("%+v step %d: Request(%#x, %v, %d) = %+v; reference %+v", cfg, step, addr, pf, now, *gt, *wt)
				}
			case 3, 4:
				gd, wd = gd[:0], wd[:0]
				got.DrainCompleted(now, func(tr *Transfer) { gd = append(gd, *tr) })
				want.DrainCompleted(now, func(tr *Transfer) { wd = append(wd, *tr) })
				if len(gd) != len(wd) {
					t.Fatalf("%+v step %d: DrainCompleted(%d) delivered %d; reference %d", cfg, step, now, len(gd), len(wd))
				}
				for i := range gd {
					if gd[i] != wd[i] {
						t.Fatalf("%+v step %d: delivery %d is %+v; reference %+v", cfg, step, i, gd[i], wd[i])
					}
				}
			case 5:
				g[0], w[0] = b2i(got.Inflight(addr)), b2i(want.Inflight(addr))
			case 6:
				g = [3]int64{got.NextCompletion(), int64(got.PendingCount()), b2i(got.BusIdle(now))}
				w = [3]int64{want.NextCompletion(), int64(want.PendingCount()), b2i(want.BusIdle(now))}
			case 7:
				got.Reset()
				want.Reset()
				now = 0
			}
			if g != w {
				t.Fatalf("%+v step %d: op %d on %#x at %d returned %v; reference %v", cfg, step, op[0]&7, addr, now, g, w)
			}
			gc := [...]uint64{got.BusBusyCycles, got.DemandRequests, got.PrefetchRequests, got.DemandMerges, got.PrefetchMerges,
				got.DemandBusWait, got.L2DemandHits, got.L2DemandMisses, got.L2PrefetchHits, got.L2PrefetchMisses,
				uint64(got.busFreeAt), got.seq, uint64(got.PendingCount())}
			wc := [...]uint64{want.BusBusyCycles, want.DemandRequests, want.PrefetchRequests, want.DemandMerges, want.PrefetchMerges,
				want.DemandBusWait, want.L2DemandHits, want.L2DemandMisses, want.L2PrefetchHits, want.L2PrefetchMisses,
				uint64(want.busFreeAt), want.seq, uint64(want.PendingCount())}
			if gc != wc {
				t.Fatalf("%+v step %d: counters %v; reference %v", cfg, step, gc, wc)
			}
		}
	})
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
