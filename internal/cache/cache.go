// Package cache models the SRAM structures on the fetch path: a generic
// set-associative cache with tag-port accounting (the resource cache-probe
// filtering steals idle cycles from) and the small fully-associative
// prefetch buffer that sits beside the L1-I.
package cache

import (
	"fmt"
	"math"
	"math/bits"
)

// Config sizes a cache. Replacement is least-recently-used.
type Config struct {
	// SizeBytes is the total capacity. SizeBytes / (Ways*LineBytes) is the
	// set count, which must be a positive power of two (see Check).
	SizeBytes int
	// Ways is the set associativity.
	Ways int
	// LineBytes is the cache line size; must be a power of two.
	LineBytes int
	// TagPorts is the number of tag-array ports available per cycle.
	// Demand accesses and cache-probe filtering share them.
	TagPorts int
}

// Check reports whether New accepts the geometry: a power-of-two line size,
// positive ways, and a set count that is a positive power of two a lazy
// cache's uint32 slot index can number.
func (cfg Config) Check() error {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", cfg.LineBytes)
	}
	if cfg.Ways <= 0 {
		return fmt.Errorf("cache: %d ways; must be positive", cfg.Ways)
	}
	if n := cfg.numSets(); n <= 0 || n&(n-1) != 0 || n > math.MaxUint32 {
		return fmt.Errorf("cache: %dB/%dw/%dB gives %d sets (need a positive power of two below 2^32)",
			cfg.SizeBytes, cfg.Ways, cfg.LineBytes, n)
	}
	return nil
}

// numSets is SizeBytes / (Ways*LineBytes), computed so no product can
// overflow.
func (cfg Config) numSets() int { return cfg.SizeBytes / cfg.LineBytes / cfg.Ways }

// lazySetThreshold is the total line count above which a cache defers
// per-set tag storage to first touch (see New).
const lazySetThreshold = 8192

// chunkSets is how many sets a lazy cache carves per chunk (fewer when the
// cache has fewer sets).
const chunkSets = 256

// way is one tag-array entry in 16 bytes. key packs the tag with two flags,
// tag<<2 | prefetched<<1 | valid, so a hit is one compare of the key with its
// prefetched bit masked off; an invalid way has key 0. Simulated addresses
// stay far below 2^62, so no tag loses a bit to the shift.
type way struct {
	key   uint64
	stamp uint64
}

const (
	wayValid      = 1
	wayPrefetched = 2
)

// Cache is a set-associative cache holding tags only — the simulator tracks
// presence and timing, never data.
type Cache struct {
	cfg       Config
	numSets   int
	lineShift uint
	setBits   uint
	setMask   uint64
	clock     uint64

	portCycle int64
	portsUsed int

	// ways is a flat cache's tag array, set si at [si*Ways, (si+1)*Ways);
	// nil for a lazy cache.
	ways []way

	// A lazy cache (the megabyte-class L2) leaves sets unbacked until their
	// first fill: a simulation touches a small fraction of the tag array, so
	// skipping the up-front allocation avoids zeroing megabytes per machine.
	// An unbacked set reads as all-invalid, which is exactly a cold set's
	// behaviour, so results are unchanged. slot[si] is 0 for an unbacked
	// set, else 1 + the set's carve position p: chunk p/chunkSets, set
	// p%chunkSets within it. carved counts the sets carved since the cache
	// was last emptied: Reset and InvalidateAll rewind it rather than drop
	// the chunks, so a recycled cache refills without allocating, and a
	// chunk is cleared when carving first reaches it again. The chunks
	// never hold more sets than the cache has.
	slot       []uint32
	chunks     [][]way
	carved     int
	chunkShift uint

	// Accesses/Hits/Misses count demand accesses; Probes/ProbeHits count
	// non-allocating tag checks; Fills/Evictions count line movement;
	// PrefetchedHits counts demand hits on lines installed by a prefetch
	// (useful-prefetch accounting for prefetch-into-cache schemes).
	Accesses, Hits, Misses     uint64
	Probes, ProbeHits          uint64
	Fills, Evictions           uint64
	PrefetchedHits             uint64
	PortGrants, PortRejections uint64
}

// New builds a cache. Invalid geometry panics: callers validate theirs with
// Check first, and a silent fix-up would skew experiments. TagPorts is taken
// as given.
func New(cfg Config) *Cache {
	if err := cfg.Check(); err != nil {
		panic(err)
	}
	numSets := cfg.numSets()
	c := &Cache{
		cfg:       cfg,
		numSets:   numSets,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setBits:   uint(bits.TrailingZeros(uint(numSets))),
		setMask:   uint64(numSets - 1),
		portCycle: -1,
	}
	if numSets*cfg.Ways <= lazySetThreshold {
		c.ways = make([]way, numSets*cfg.Ways)
	} else {
		c.slot = make([]uint32, numSets)
		c.chunkShift = uint(bits.TrailingZeros(uint(min(chunkSets, numSets))))
	}
	return c
}

// LineAddr aligns addr down to its cache line.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr &^ uint64(c.cfg.LineBytes-1) }

// locate returns addr's set index and the key a valid, non-prefetched way
// holding its line has.
func (c *Cache) locate(addr uint64) (int, uint64) {
	l := addr >> c.lineShift
	return int(l & c.setMask), l>>c.setBits<<2 | wayValid
}

// set returns set si's ways. A flat cache slices its tag array directly and
// never consults the slot index.
func (c *Cache) set(si int) []way {
	if c.slot != nil {
		return c.lazySet(si)
	}
	return c.ways[si*c.cfg.Ways:][:c.cfg.Ways]
}

// lazySet returns a lazy cache's set si: nil while the set is unbacked,
// which holds no line. It stays out of line so that set, on every flat
// cache's lookup path, inlines.
//
//go:noinline
func (c *Cache) lazySet(si int) []way {
	s := c.slot[si]
	if s == 0 {
		return nil
	}
	p, n := int(s-1), c.cfg.Ways
	lo := (p & (1<<c.chunkShift - 1)) * n
	return c.chunks[p>>c.chunkShift][lo : lo+n]
}

// find returns the way in set holding key's line, or nil.
func find(set []way, key uint64) *way {
	for i := range set {
		if set[i].key&^wayPrefetched == key {
			return &set[i]
		}
	}
	return nil
}

// TryUsePort consumes one tag port for the given cycle. It returns false
// when all ports are busy this cycle. Demand accesses should acquire their
// port before filters do.
func (c *Cache) TryUsePort(now int64) bool {
	if now != c.portCycle {
		c.portCycle = now
		c.portsUsed = 0
	}
	if c.portsUsed >= c.cfg.TagPorts {
		c.PortRejections++
		return false
	}
	c.portsUsed++
	c.PortGrants++
	return true
}

// IdlePorts reports how many tag ports remain unused this cycle.
func (c *Cache) IdlePorts(now int64) int {
	if now != c.portCycle {
		return c.cfg.TagPorts
	}
	return c.cfg.TagPorts - c.portsUsed
}

// Access performs a demand lookup, making a hit line the most recently used.
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	si, key := c.locate(addr)
	w := find(c.set(si), key)
	if w == nil {
		c.Misses++
		return false
	}
	c.Hits++
	if w.key&wayPrefetched != 0 {
		c.PrefetchedHits++
		w.key = key
	}
	c.clock++
	w.stamp = c.clock
	return true
}

// Probe performs a tag check without touching replacement state or demand
// counters — the cache-probe-filtering primitive.
func (c *Cache) Probe(addr uint64) bool {
	c.Probes++
	if c.Contains(addr) {
		c.ProbeHits++
		return true
	}
	return false
}

// Contains reports presence without any statistics side effects.
func (c *Cache) Contains(addr uint64) bool {
	si, key := c.locate(addr)
	return find(c.set(si), key) != nil
}

// Fill installs the line containing addr, returning the evicted line
// address when a valid victim was displaced. prefetched marks lines
// installed by a prefetcher for useful-prefetch accounting.
func (c *Cache) Fill(addr uint64, prefetched bool) (evicted uint64, didEvict bool) {
	si, key := c.locate(addr)
	set := c.set(si)
	if set == nil {
		set = c.carve(si)
	}
	c.clock++
	// Already present: refresh only.
	if w := find(set, key); w != nil {
		w.stamp = c.clock
		return 0, false
	}
	victim := -1
	for i := range set {
		if set[i].key&wayValid == 0 {
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
		evicted = (set[victim].key>>2<<c.setBits | uint64(si)) << c.lineShift
		c.Evictions++
	}
	if prefetched {
		key |= wayPrefetched
	}
	set[victim] = way{key: key, stamp: c.clock}
	c.Fills++
	return evicted, didEvict
}

// carve backs a lazy cache's set si with the next carve position: a slice of
// a chunk an earlier generation carved, cleared when carving first reaches
// that chunk again (its sets belonged to that generation), or of a new
// zeroed chunk once those run out.
func (c *Cache) carve(si int) []way {
	p := c.carved
	c.carved++
	if ci := p >> c.chunkShift; ci == len(c.chunks) {
		// A power-of-two set count makes the chunks tile the cache exactly.
		c.chunks = append(c.chunks, make([]way, c.cfg.Ways<<c.chunkShift))
	} else if p&(1<<c.chunkShift-1) == 0 {
		clear(c.chunks[ci])
	}
	c.slot[si] = uint32(p + 1)
	return c.lazySet(si)
}

// InvalidateAll empties the cache. A lazy cache unbacks every set, which
// reads the same as backed sets of invalid ways.
func (c *Cache) InvalidateAll() {
	clear(c.ways)
	clear(c.slot)
	c.carved = 0
}

// Reset restores the pristine just-constructed state: every line invalid,
// replacement clock and port state rewound, counters zeroed. A flat cache
// zeroes its tag array; a lazy cache (the megabyte-class L2) unbacks its sets
// and rewinds its carve position, exactly reproducing a fresh machine's cold
// tag array. Chunks are cleared as Fill reuses them, so a reset never zeroes
// the whole capacity, and a recycled cache refills without allocating.
func (c *Cache) Reset() {
	c.InvalidateAll()
	c.clock = 0
	c.portCycle = -1
	c.portsUsed = 0
	c.Accesses, c.Hits, c.Misses = 0, 0, 0
	c.Probes, c.ProbeHits = 0, 0
	c.Fills, c.Evictions = 0, 0
	c.PrefetchedHits = 0
	c.PortGrants, c.PortRejections = 0, 0
}
