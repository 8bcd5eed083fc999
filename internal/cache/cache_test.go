package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func small() *Cache {
	return New(Config{SizeBytes: 1024, Ways: 2, LineBytes: 32, TagPorts: 2})
}

func TestGeometry(t *testing.T) {
	c := small()
	if c.numSets != 16 {
		t.Errorf("sets = %d, want 16", c.numSets)
	}
	if c.LineAddr(0x1234) != 0x1220 {
		t.Errorf("LineAddr = %#x", c.LineAddr(0x1234))
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []Config{
		{SizeBytes: 1024, Ways: 2, LineBytes: 33},
		{SizeBytes: 1024, Ways: 0, LineBytes: 32},
		{SizeBytes: 1000, Ways: 2, LineBytes: 32},
	}
	for i, cfg := range cases {
		if cfg.Check() == nil {
			t.Errorf("case %d: Check accepts a geometry New refuses", i)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: bad geometry did not panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestMissFillHit(t *testing.T) {
	c := small()
	if c.Access(0x1000) {
		t.Error("hit in empty cache")
	}
	c.Fill(0x1000, false)
	if !c.Access(0x1000) {
		t.Error("miss after fill")
	}
	if !c.Access(0x101c) {
		t.Error("miss on other word of same line")
	}
	if c.Hits != 2 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := small() // 16 sets x 2 ways, 32B lines: set stride is 512B
	a0 := uint64(0x10000)
	a1 := a0 + 512  // same set
	a2 := a0 + 1024 // same set
	c.Fill(a0, false)
	c.Fill(a1, false)
	c.Access(a0) // a1 becomes LRU
	ev, did := c.Fill(a2, false)
	if !did || ev != a1 {
		t.Errorf("evicted %#x,%v; want %#x", ev, did, a1)
	}
	if !c.Contains(a0) || c.Contains(a1) || !c.Contains(a2) {
		t.Error("wrong set contents after eviction")
	}
}

func TestFillDuplicateNoEvict(t *testing.T) {
	c := small()
	c.Fill(0x1000, false)
	if _, did := c.Fill(0x1000, false); did {
		t.Error("duplicate fill evicted")
	}
	if c.Fills != 1 {
		t.Errorf("Fills = %d", c.Fills)
	}
}

func TestProbeNoSideEffects(t *testing.T) {
	c := small()
	a0 := uint64(0x10000)
	a1 := a0 + 512
	a2 := a0 + 1024
	c.Fill(a0, false)
	c.Fill(a1, false)
	// Probing a0 must NOT refresh its LRU position.
	if !c.Probe(a0) {
		t.Error("probe missed present line")
	}
	ev, _ := c.Fill(a2, false)
	if ev != a0 {
		t.Errorf("probe refreshed LRU: evicted %#x, want %#x", ev, a0)
	}
	if c.Accesses != 0 {
		t.Error("probe counted as access")
	}
	if c.Probes != 1 || c.ProbeHits != 1 {
		t.Errorf("probes=%d hits=%d", c.Probes, c.ProbeHits)
	}
}

func TestEvictedAddressReconstruction(t *testing.T) {
	c := small()
	addrs := []uint64{0x4_0000, 0x4_0000 + 512, 0x4_0000 + 1024}
	c.Fill(addrs[0], false)
	c.Fill(addrs[1], false)
	ev, did := c.Fill(addrs[2], false)
	if !did {
		t.Fatal("no eviction")
	}
	if ev != addrs[0] {
		t.Errorf("reconstructed %#x, want %#x", ev, addrs[0])
	}
}

func TestPortAccounting(t *testing.T) {
	c := small() // 2 ports
	if !c.TryUsePort(10) || !c.TryUsePort(10) {
		t.Fatal("ports denied")
	}
	if c.TryUsePort(10) {
		t.Error("third port granted")
	}
	if c.IdlePorts(10) != 0 {
		t.Errorf("IdlePorts = %d", c.IdlePorts(10))
	}
	// New cycle resets.
	if c.IdlePorts(11) != 2 {
		t.Errorf("IdlePorts new cycle = %d", c.IdlePorts(11))
	}
	if !c.TryUsePort(11) {
		t.Error("port denied on fresh cycle")
	}
	if c.PortGrants != 3 || c.PortRejections != 1 {
		t.Errorf("grants=%d rejections=%d", c.PortGrants, c.PortRejections)
	}
}

func TestPrefetchedHitAccounting(t *testing.T) {
	c := small()
	c.Fill(0x1000, true)
	c.Access(0x1000)
	if c.PrefetchedHits != 1 {
		t.Errorf("PrefetchedHits = %d", c.PrefetchedHits)
	}
	// Second access: no longer counted as first-use.
	c.Access(0x1000)
	if c.PrefetchedHits != 1 {
		t.Errorf("PrefetchedHits double-counted: %d", c.PrefetchedHits)
	}
}

// Invalidate removes the line containing addr, reporting whether it was
// present.
func (c *Cache) Invalidate(addr uint64) bool {
	si, key := c.locate(addr)
	if w := find(c.set(si), key); w != nil {
		*w = way{}
		return true
	}
	return false
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Fill(0x1000, false)
	if !c.Invalidate(0x1000) {
		t.Error("invalidate missed")
	}
	if c.Contains(0x1000) {
		t.Error("line survived invalidate")
	}
	if c.Invalidate(0x1000) {
		t.Error("double invalidate succeeded")
	}
	c.Fill(0x2000, false)
	c.InvalidateAll()
	if c.Contains(0x2000) {
		t.Error("line survived InvalidateAll")
	}
}

func TestMissRate(t *testing.T) {
	c := small()
	if c.Accesses != 0 || c.Misses != 0 {
		t.Errorf("empty cache counted %d misses in %d accesses", c.Misses, c.Accesses)
	}
	c.Access(0x1000)
	c.Fill(0x1000, false)
	c.Access(0x1000)
	if c.Accesses != 2 || c.Misses != 1 {
		t.Errorf("miss then hit counted %d misses in %d accesses", c.Misses, c.Accesses)
	}
}

// Property: the cache never holds more distinct lines than its capacity, and
// Contains(x) after Fill(x) is always true.
func TestQuickCapacityInvariant(t *testing.T) {
	c := New(Config{SizeBytes: 512, Ways: 2, LineBytes: 32, TagPorts: 1})
	live := map[uint64]bool{}
	f := func(raw uint32) bool {
		addr := uint64(raw) &^ 31
		ev, did := c.Fill(addr, false)
		live[c.LineAddr(addr)] = true
		if did {
			delete(live, ev)
		}
		if !c.Contains(addr) {
			return false
		}
		if len(live) > 16 { // 512B / 32B = 16 lines
			return false
		}
		// The model and the cache must agree exactly.
		for l := range live {
			if !c.Contains(l) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
