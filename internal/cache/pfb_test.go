package cache

import "testing"

func TestPFBInsertTake(t *testing.T) {
	p := NewPrefetchBuffer(4, 32)
	p.Insert(0x1000)
	if !p.Contains(0x1010) {
		t.Error("Contains missed same-line address")
	}
	if !p.Take(0x1000) {
		t.Error("Take missed")
	}
	if p.Contains(0x1000) {
		t.Error("entry survived Take")
	}
	if p.Take(0x1000) {
		t.Error("double Take succeeded")
	}
	if p.Hits != 1 || p.Inserts != 1 {
		t.Errorf("hits=%d inserts=%d", p.Hits, p.Inserts)
	}
}

func TestPFBFIFOEviction(t *testing.T) {
	p := NewPrefetchBuffer(2, 32)
	p.Insert(0x1000)
	p.Insert(0x2000)
	p.Insert(0x3000) // evicts 0x1000
	if p.Contains(0x1000) {
		t.Error("oldest entry survived")
	}
	if !p.Contains(0x2000) || !p.Contains(0x3000) {
		t.Error("younger entries lost")
	}
	if p.Evictions != 1 {
		t.Errorf("Evictions = %d", p.Evictions)
	}
}

// Occupancy returns the number of live entries.
func (p *PrefetchBuffer) Occupancy() int { return p.index.Len() }

func TestPFBDuplicateInsertDropped(t *testing.T) {
	p := NewPrefetchBuffer(4, 32)
	p.Insert(0x1000)
	p.Insert(0x1008) // same line
	if p.Inserts != 1 {
		t.Errorf("Inserts = %d", p.Inserts)
	}
	if p.Occupancy() != 1 {
		t.Errorf("Occupancy = %d", p.Occupancy())
	}
}

func TestPFBFreeSlotReuse(t *testing.T) {
	p := NewPrefetchBuffer(2, 32)
	p.Insert(0x1000)
	p.Insert(0x2000)
	p.Take(0x1000)
	p.Insert(0x3000) // must reuse the freed slot, not evict 0x2000
	if !p.Contains(0x2000) || !p.Contains(0x3000) {
		t.Error("free slot not reused")
	}
	if p.Evictions != 0 {
		t.Errorf("Evictions = %d", p.Evictions)
	}
}

func TestPFBZeroCapacity(t *testing.T) {
	p := NewPrefetchBuffer(0, 32)
	p.Insert(0x1000)
	if p.Contains(0x1000) || p.Take(0x1000) {
		t.Error("zero-capacity buffer stored a line")
	}
	if p.Capacity() != 0 {
		t.Errorf("Capacity = %d", p.Capacity())
	}
	p2 := NewPrefetchBuffer(-3, 32)
	if p2.Capacity() != 0 {
		t.Error("negative capacity not clamped")
	}
}

func TestPFBResetAndStorage(t *testing.T) {
	p := NewPrefetchBuffer(4, 32)
	p.Insert(0x1000)
	p.Insert(0x2000)
	p.Reset()
	if p.Occupancy() != 0 || p.Contains(0x1000) || p.Contains(0x2000) {
		t.Errorf("Occupancy = %d after Reset", p.Occupancy())
	}
	if got := len(p.entries); got != 4 {
		t.Errorf("Reset kept %d of 4 entries' storage", got)
	}
}
