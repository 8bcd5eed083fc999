package cache

import "testing"

// refCache is the reference model FuzzCacheReference checks Cache against: a
// stamp-LRU set-associative cache whose lines keep valid and prefetched as
// separate bools and whose sets are all allocated up front — the 32-byte
// layout Cache used before its tags, flags and set storage were packed. A
// lazily allocated set reads as all-invalid, so the eager sets here behave
// like Cache's flat and lazy stores alike.
type refCache struct {
	cfg       Config
	sets      [][]refLine
	lineShift uint
	setBits   uint
	setMask   uint64
	clock     uint64

	Accesses, Hits, Misses uint64
	Probes, ProbeHits      uint64
	Fills, Evictions       uint64
	PrefetchedHits         uint64
}

type refLine struct {
	valid      bool
	tag        uint64
	stamp      uint64
	prefetched bool
}

func newRefCache(cfg Config) *refCache {
	numSets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	c := &refCache{cfg: cfg, sets: make([][]refLine, numSets), setMask: uint64(numSets - 1)}
	backing := make([]refLine, numSets*cfg.Ways)
	for i := range c.sets {
		c.sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	for 1<<c.lineShift < cfg.LineBytes {
		c.lineShift++
	}
	for 1<<c.setBits < numSets {
		c.setBits++
	}
	return c
}

func (c *refCache) setAndTag(addr uint64) (int, uint64) {
	l := addr >> c.lineShift
	return int(l & c.setMask), l >> c.setBits
}

func (c *refCache) Access(addr uint64) bool {
	c.Accesses++
	si, tag := c.setAndTag(addr)
	for i := range c.sets[si] {
		ln := &c.sets[si][i]
		if ln.valid && ln.tag == tag {
			c.Hits++
			if ln.prefetched {
				c.PrefetchedHits++
				ln.prefetched = false
			}
			c.clock++
			ln.stamp = c.clock
			return true
		}
	}
	c.Misses++
	return false
}

func (c *refCache) Probe(addr uint64) bool {
	c.Probes++
	if c.Contains(addr) {
		c.ProbeHits++
		return true
	}
	return false
}

func (c *refCache) Contains(addr uint64) bool {
	si, tag := c.setAndTag(addr)
	for _, ln := range c.sets[si] {
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) Fill(addr uint64, prefetched bool) (evicted uint64, didEvict bool) {
	si, tag := c.setAndTag(addr)
	set := c.sets[si]
	c.clock++
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].stamp = c.clock
			return 0, false
		}
	}
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := 1; i < len(set); i++ {
			if set[i].stamp < set[victim].stamp {
				victim = i
			}
		}
		didEvict = true
		evicted = ((set[victim].tag << c.setBits) | uint64(si)) << c.lineShift
		c.Evictions++
	}
	set[victim] = refLine{valid: true, tag: tag, stamp: c.clock, prefetched: prefetched}
	c.Fills++
	return evicted, didEvict
}

func (c *refCache) Invalidate(addr uint64) bool {
	si, tag := c.setAndTag(addr)
	for i, ln := range c.sets[si] {
		if ln.valid && ln.tag == tag {
			c.sets[si][i] = refLine{}
			return true
		}
	}
	return false
}

func (c *refCache) InvalidateAll() {
	for _, set := range c.sets {
		clear(set)
	}
}

func (c *refCache) Reset() { *c = *newRefCache(c.cfg) }

// fuzzCacheConfig derives a geometry from two bytes: the associativity (1 to
// 128 ways), the line size (16 or 32 bytes) and either a flat store of 1 to
// 32 sets or a lazy store of 16384 lines. g's low two bits are unused.
func fuzzCacheConfig(g, s byte) Config {
	cfg := Config{
		Ways:      1 << (g >> 3 & 7),
		LineBytes: 16 << (g >> 6 & 1),
		TagPorts:  1,
	}
	sets := 1 << (s % 6)
	if g&4 != 0 {
		sets = (lazySetThreshold * 2) / cfg.Ways
	}
	cfg.SizeBytes = sets * cfg.Ways * cfg.LineBytes
	return cfg
}

// FuzzCacheReference drives Cache and refCache through the same operation
// sequence and requires every return value and counter to agree after every
// step. data[0:2] picks the geometry (fuzzCacheConfig); every further three
// bytes are one operation: an opcode byte (low three bits the operation, the
// rest the prefetched flag and the byte offset within the line), a set byte
// spread over the whole set range, and a tag byte whose low four bits are
// the tag and whose fifth sets the top bit of a 48-bit address. The
// committed corpus (testdata/fuzz/FuzzCacheReference) covers flat and lazy
// stores.
func FuzzCacheReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := fuzzCacheConfig(data[0], data[1])
		got, want := New(cfg), newRefCache(cfg)
		numSets := uint64(got.numSets)
		topTag := uint64(1) << (47 - want.setBits - want.lineShift)
		for step, op := 0, data[2:]; len(op) >= 3; step, op = step+1, op[3:] {
			tag := uint64(op[2] & 15)
			if op[2]&16 != 0 {
				tag |= topTag
			}
			si := uint64(op[1]) * numSets >> 8
			if numSets < 256 {
				si = uint64(op[1]) % numSets
			}
			addr := (tag<<want.setBits|si)<<want.lineShift | uint64(op[0]>>4)&uint64(cfg.LineBytes-1)
			var g, w [2]uint64
			switch op[0] & 7 {
			case 0, 7:
				g[0], w[0] = b2u(got.Access(addr)), b2u(want.Access(addr))
			case 1:
				g[0], w[0] = b2u(got.Probe(addr)), b2u(want.Probe(addr))
			case 2:
				g[0], w[0] = b2u(got.Contains(addr)), b2u(want.Contains(addr))
			case 3:
				pf := op[0]&8 != 0
				ge, gd := got.Fill(addr, pf)
				we, wd := want.Fill(addr, pf)
				g, w = [2]uint64{ge, b2u(gd)}, [2]uint64{we, b2u(wd)}
			case 4:
				g[0], w[0] = b2u(got.Invalidate(addr)), b2u(want.Invalidate(addr))
			case 5:
				got.InvalidateAll()
				want.InvalidateAll()
			case 6:
				got.Reset()
				want.Reset()
			}
			if g != w {
				t.Fatalf("%+v step %d: op %d on %#x returned %v; reference %v", cfg, step, op[0]&7, addr, g, w)
			}
			gc := [...]uint64{got.Accesses, got.Hits, got.Misses, got.Probes, got.ProbeHits, got.Fills, got.Evictions, got.PrefetchedHits, got.clock}
			wc := [...]uint64{want.Accesses, want.Hits, want.Misses, want.Probes, want.ProbeHits, want.Fills, want.Evictions, want.PrefetchedHits, want.clock}
			if gc != wc {
				t.Fatalf("%+v step %d: counters %v; reference %v", cfg, step, gc, wc)
			}
		}
	})
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
