package cache

// LineIndex is an exact map from a line address to a small non-negative
// slot number: an open-addressed table with linear probing and
// backward-shift deletion, so a probe touches one or two adjacent entries
// and deletions leave no tombstones behind. At most half the table is live;
// Put doubles it past that, and Reset empties it keeping its storage, so an
// index sized for its peak population never allocates again. The zero value
// is an empty index.
type LineIndex struct {
	entries []indexEntry // power-of-two length
	shift   uint         // 64 - log2(len(entries)): home() keeps the top bits
	n       int
}

type indexEntry struct {
	line uint64
	slot uint32 // slot+1; 0 marks an empty entry
}

// NewLineIndex returns an index that holds capacity lines without growing.
func NewLineIndex(capacity int) LineIndex {
	var x LineIndex
	if capacity > 0 {
		x.resize(2 * capacity)
	}
	return x
}

// resize rebuilds the table with at least size entries (a power of two, at
// least 8), rehashing every live entry.
func (x *LineIndex) resize(size int) {
	n, shift := 8, uint(61)
	for n < size {
		n, shift = 2*n, shift-1
	}
	old := x.entries
	x.entries, x.shift, x.n = make([]indexEntry, n), shift, 0
	for _, e := range old {
		if e.slot != 0 {
			x.Put(e.line, int(e.slot-1))
		}
	}
}

// home is line's first probe position (Fibonacci hashing: the top bits of
// the product spread line-aligned keys over the whole table).
func (x *LineIndex) home(line uint64) int {
	return int((line * 0x9E3779B97F4A7C15) >> x.shift)
}

// find returns the entry position holding line, or -1.
func (x *LineIndex) find(line uint64) int {
	if x.n == 0 {
		return -1
	}
	mask := len(x.entries) - 1
	for i := x.home(line); ; i = (i + 1) & mask {
		switch e := &x.entries[i]; {
		case e.slot == 0:
			return -1
		case e.line == line:
			return i
		}
	}
}

// Has reports whether line is mapped.
func (x *LineIndex) Has(line uint64) bool { return x.find(line) >= 0 }

// Get returns line's slot.
func (x *LineIndex) Get(line uint64) (int, bool) {
	i := x.find(line)
	if i < 0 {
		return 0, false
	}
	return int(x.entries[i].slot - 1), true
}

// Put maps line to slot, replacing any previous mapping.
func (x *LineIndex) Put(line uint64, slot int) {
	if 2*(x.n+1) > len(x.entries) {
		x.resize(2 * (x.n + 1))
	}
	mask := len(x.entries) - 1
	for i := x.home(line); ; i = (i + 1) & mask {
		e := &x.entries[i]
		if e.slot == 0 {
			*e = indexEntry{line: line, slot: uint32(slot) + 1}
			x.n++
			return
		}
		if e.line == line {
			e.slot = uint32(slot) + 1
			return
		}
	}
}

// Delete removes line and returns the slot it mapped to.
func (x *LineIndex) Delete(line uint64) (int, bool) {
	i := x.find(line)
	if i < 0 {
		return 0, false
	}
	slot := int(x.entries[i].slot - 1)
	// Backward shift: walk the rest of the probe run and pull each entry
	// whose home lies cyclically at or before the hole into it, so every
	// remaining entry stays reachable from its home without a tombstone.
	mask := len(x.entries) - 1
	hole := i
	for j := (i + 1) & mask; x.entries[j].slot != 0; j = (j + 1) & mask {
		if (j-x.home(x.entries[j].line))&mask >= (j-hole)&mask {
			x.entries[hole] = x.entries[j]
			hole = j
		}
	}
	x.entries[hole] = indexEntry{}
	x.n--
	return slot, true
}

// Len returns the number of mapped lines.
func (x *LineIndex) Len() int { return x.n }

// Reset empties the index, retaining its table.
func (x *LineIndex) Reset() {
	clear(x.entries)
	x.n = 0
}
