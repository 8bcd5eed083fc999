package cache

import "testing"

// refPrefetchBuffer is the reference model FuzzPrefetchBufferReference checks
// PrefetchBuffer against: the linear-scan layout the buffer used before its
// exact line index. Every probe walks the valid bits; an insert takes the
// lowest free slot, else the FIFO cursor's victim.
type refPrefetchBuffer struct {
	lineMask uint64
	entries  []uint64
	valid    []bool
	next     int

	Inserts, Hits, Evictions uint64
}

func newRefPrefetchBuffer(numEntries, lineBytes int) *refPrefetchBuffer {
	numEntries = max(numEntries, 0)
	return &refPrefetchBuffer{
		lineMask: ^uint64(lineBytes - 1),
		entries:  make([]uint64, numEntries),
		valid:    make([]bool, numEntries),
	}
}

func (p *refPrefetchBuffer) Contains(addr uint64) bool {
	l := addr & p.lineMask
	for i, v := range p.valid {
		if v && p.entries[i] == l {
			return true
		}
	}
	return false
}

func (p *refPrefetchBuffer) Take(addr uint64) bool {
	l := addr & p.lineMask
	for i, v := range p.valid {
		if v && p.entries[i] == l {
			p.valid[i] = false
			p.Hits++
			return true
		}
	}
	return false
}

func (p *refPrefetchBuffer) Insert(addr uint64) {
	if len(p.entries) == 0 {
		return
	}
	l := addr & p.lineMask
	if p.Contains(l) {
		return
	}
	for i, v := range p.valid {
		if !v {
			p.entries[i] = l
			p.valid[i] = true
			p.Inserts++
			return
		}
	}
	p.entries[p.next] = l
	p.valid[p.next] = true
	p.next = (p.next + 1) % len(p.entries)
	p.Inserts++
	p.Evictions++
}

func (p *refPrefetchBuffer) Reset() {
	clear(p.valid)
	clear(p.entries)
	p.next = 0
	p.Inserts, p.Hits, p.Evictions = 0, 0, 0
}

func (p *refPrefetchBuffer) Occupancy() int {
	n := 0
	for _, v := range p.valid {
		if v {
			n++
		}
	}
	return n
}

// fuzzPFBSizes are the buffer capacities data[0] picks from: no buffer, one
// entry, the default, E7's largest, and two odd sizes between.
var fuzzPFBSizes = [...]int{0, 1, 2, 5, 8, 32, 100, 128}

// FuzzPrefetchBufferReference drives PrefetchBuffer and refPrefetchBuffer
// through the same operation sequence and requires identical results and
// counters after every step. data[0] picks the capacity (fuzzPFBSizes);
// every further two bytes are one operation: an opcode byte (low two bits
// Insert, Take, Contains or Reset; the rest the byte offset within the
// line) and a line byte. Lines span twice the largest capacity, so a full
// buffer evicts and a probe misses as often as it hits. The committed corpus
// (testdata/fuzz/FuzzPrefetchBufferReference) covers capacities 0, 1, 32
// and 128.
func FuzzPrefetchBufferReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		size := fuzzPFBSizes[int(data[0])%len(fuzzPFBSizes)]
		got, want := NewPrefetchBuffer(size, 32), newRefPrefetchBuffer(size, 32)
		for step, op := 0, data[1:]; len(op) >= 2; step, op = step+1, op[2:] {
			addr := uint64(op[1])<<5 | uint64(op[0]>>3)
			var g, w bool
			switch op[0] & 3 {
			case 0:
				got.Insert(addr)
				want.Insert(addr)
			case 1:
				g, w = got.Take(addr), want.Take(addr)
			case 2:
				g, w = got.Contains(addr), want.Contains(addr)
			case 3:
				got.Reset()
				want.Reset()
			}
			if g != w {
				t.Fatalf("size %d step %d: op %d on %#x returned %v; reference %v", size, step, op[0]&3, addr, g, w)
			}
			gc := [...]uint64{got.Inserts, got.Hits, got.Evictions, uint64(got.Occupancy()), uint64(got.next)}
			wc := [...]uint64{want.Inserts, want.Hits, want.Evictions, uint64(want.Occupancy()), uint64(want.next)}
			if gc != wc {
				t.Fatalf("size %d step %d: counters %v; reference %v", size, step, gc, wc)
			}
		}
		// The final contents agree line for line, slot for slot.
		for i := range want.entries {
			if want.valid[i] != pfbLive(got, i) || want.valid[i] && want.entries[i] != got.entries[i] {
				t.Fatalf("size %d: slot %d holds (%v, %#x); reference (%v, %#x)", size, i, pfbLive(got, i), got.entries[i], want.valid[i], want.entries[i])
			}
		}
	})
}

// pfbLive reports whether slot i of p holds a line.
func pfbLive(p *PrefetchBuffer, i int) bool { return p.used[i/64]&(1<<(i%64)) != 0 }
