package cache

import "math/bits"

// PrefetchBuffer is the small fully-associative FIFO buffer prefetched lines
// land in. It is probed in parallel with the L1-I on every fetch; a hit
// transfers the line into the L1-I (the caller performs the Fill) and frees
// the buffer slot. Keeping prefetches out of the cache until first use is
// what protects the L1-I from wrong-path pollution.
//
// Probes go through an exact line→slot index, so Contains, Take and Insert
// cost the same at 8 entries as at 128; a used-slot bitmap finds the lowest
// free slot an insert takes.
type PrefetchBuffer struct {
	lineMask uint64
	entries  []uint64
	used     []uint64  // bit i%64 of word i/64 set: entries[i] is live
	index    LineIndex // live line → slot
	next     int       // FIFO allocation cursor

	// Inserts/Hits/Evictions count buffer traffic; an eviction replaces a
	// live entry the FIFO cursor chose because no slot was free.
	Inserts, Hits, Evictions uint64
}

// NewPrefetchBuffer creates a buffer with the given number of entries for
// lineBytes-sized lines. A zero-entry buffer is legal and behaves as "no
// buffer" (inserts drop, probes miss), which gives experiments a clean way
// to disable prefetching storage.
func NewPrefetchBuffer(numEntries, lineBytes int) *PrefetchBuffer {
	numEntries = max(numEntries, 0)
	return &PrefetchBuffer{
		lineMask: ^uint64(lineBytes - 1),
		entries:  make([]uint64, numEntries),
		used:     make([]uint64, (numEntries+63)/64),
		index:    NewLineIndex(numEntries),
	}
}

// Capacity returns the entry count.
func (p *PrefetchBuffer) Capacity() int { return len(p.entries) }

// Contains reports whether the line holding addr is buffered, without side
// effects.
func (p *PrefetchBuffer) Contains(addr uint64) bool {
	return p.index.Has(addr & p.lineMask)
}

// Take removes and returns the buffered line on a fetch hit. ok is false on
// a miss.
func (p *PrefetchBuffer) Take(addr uint64) bool {
	i, ok := p.index.Delete(addr & p.lineMask)
	if ok {
		p.used[i/64] &^= 1 << (i % 64)
		p.Hits++
	}
	return ok
}

// Insert installs a prefetched line in the lowest free slot, or in the
// FIFO cursor's slot when none is free. Duplicate inserts refresh nothing
// and are dropped.
func (p *PrefetchBuffer) Insert(addr uint64) {
	if len(p.entries) == 0 {
		return
	}
	l := addr & p.lineMask
	if p.index.Has(l) {
		return
	}
	p.Inserts++
	if p.index.Len() < len(p.entries) {
		for w, u := range p.used {
			if u != ^uint64(0) {
				p.install(64*w+bits.TrailingZeros64(^u), l)
				return
			}
		}
	}
	p.index.Delete(p.entries[p.next])
	p.install(p.next, l)
	p.next = (p.next + 1) % len(p.entries)
	p.Evictions++
}

// install puts line l in slot i.
func (p *PrefetchBuffer) install(i int, l uint64) {
	p.entries[i] = l
	p.used[i/64] |= 1 << (i % 64)
	p.index.Put(l, i)
}

// Reset restores the pristine just-constructed state: every entry invalid,
// the FIFO cursor rewound, and counters zeroed, retaining the backing
// arrays.
func (p *PrefetchBuffer) Reset() {
	clear(p.entries)
	clear(p.used)
	p.index.Reset()
	p.next = 0
	p.Inserts, p.Hits, p.Evictions = 0, 0, 0
}
