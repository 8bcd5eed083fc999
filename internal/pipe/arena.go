package pipe

// Arena is the per-processor uop store: a power-of-two ring of Uop records
// into which each dynamic instruction is written exactly once, by the fetch
// engine, at allocation. Every downstream stage — the decode pipe, ROB
// entries, the pending-mispredict register, the redirect the backend hands
// the core — holds 32-bit slot indices into this ring instead of ~100-byte
// Uop values, which removes the per-instruction duffcopy chain
// (fetch buffer → decode pipe → ROB) from the cycle kernel's hot path.
//
// Lifetime contract (see ARCHITECTURE.md "Uop lifetime and arena
// ownership"): slots are allocated in fetch order and freed from exactly two
// ends — FreeOldest at in-order commit, FreeNewest when a resolving
// misprediction squashes the youngest suffix (the squashed set is always a
// contiguous run of the most recent allocations, because everything fetched
// after a mispredicted branch is younger than it). The live slots therefore
// always form one contiguous ring range [oldest, newest]; an index is valid
// from Alloc until its slot is freed, and the slot's storage is not rewritten
// until the ring laps back to it.
//
// Sizing: the machine can hold at most decode-pipe capacity + ROB size uops
// in flight (fetch allocates at most the pipe's free capacity per cycle, and
// the pipe drains into the ROB), so a capacity of PipeCap + ROBSize plus a
// little slack covers the maximum live set; Alloc panics on overflow, which
// would indicate a sizing or lifetime bug, never a workload property.
type Arena struct {
	buf  []Uop
	mask uint32
	// head/tail are monotone operation counts (not masked): head counts
	// slots freed from the old end, tail slots allocated (minus rollbacks).
	// Live slots are [head, tail); both wrap through mask for storage.
	head uint64
	tail uint64
}

// NewArena builds an arena with at least capacity slots, rounded up to a
// power of two.
func NewArena(capacity int) *Arena {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Arena{buf: make([]Uop, n), mask: uint32(n - 1)}
}

// Len returns the number of live (allocated, unfreed) slots.
func (a *Arena) Len() int { return int(a.tail - a.head) }

// Alloc claims the next slot and returns its index and record. The caller
// (the fetch engine's delivery loop) assigns every field, so the slot needs no
// zeroing. Panics when the ring is full — a lifetime bug, see the sizing
// note on Arena.
func (a *Arena) Alloc() (uint32, *Uop) {
	if a.tail-a.head >= uint64(len(a.buf)) {
		panic("pipe: uop arena overflow — live uops exceed sized max in-flight")
	}
	idx := uint32(a.tail) & a.mask
	a.tail++
	return idx, &a.buf[idx]
}

// At returns the record at a slot index previously returned by Alloc.
func (a *Arena) At(i uint32) *Uop { return &a.buf[i] }

// Next returns the slot index allocated immediately after i — how a
// consumer walks a contiguous allocation range handed off as (first, n).
func (a *Arena) Next(i uint32) uint32 { return (i + 1) & a.mask }

// FreeOldest releases the n oldest live slots (in-order commit).
func (a *Arena) FreeOldest(n int) {
	if uint64(n) > a.tail-a.head {
		panic("pipe: arena FreeOldest past live range")
	}
	a.head += uint64(n)
}

// FreeNewest rolls back the n most recently allocated live slots (squash of
// the youngest suffix, or un-doing a just-allocated slot).
func (a *Arena) FreeNewest(n int) {
	if uint64(n) > a.tail-a.head {
		panic("pipe: arena FreeNewest past live range")
	}
	a.tail -= uint64(n)
}

// Reset restores the pristine just-constructed state, retaining the backing
// array. Stale slot contents are unobservable: Alloc hands out slots whose
// every field the builder assigns.
func (a *Arena) Reset() {
	a.head, a.tail = 0, 0
}
