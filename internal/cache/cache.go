// Package cache models the SRAM structures on the fetch path: a generic
// set-associative cache with tag-port accounting (the resource cache-probe
// filtering steals idle cycles from) and the small fully-associative
// prefetch buffer that sits beside the L1-I.
package cache

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Policy selects the replacement policy.
type Policy uint8

const (
	// LRU replaces the least recently used way.
	LRU Policy = iota
	// FIFO replaces ways in allocation order.
	FIFO
	// Random replaces a pseudo-randomly chosen way.
	Random
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case Random:
		return "random"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// Config sizes a cache.
type Config struct {
	// SizeBytes is the total capacity; must be a multiple of
	// Ways*LineBytes. Rounded to the nearest valid power-of-two set count.
	SizeBytes int
	// Ways is the set associativity.
	Ways int
	// LineBytes is the cache line size; must be a power of two.
	LineBytes int
	// Repl selects the replacement policy.
	Repl Policy
	// TagPorts is the number of tag-array ports available per cycle.
	// Demand accesses and cache-probe filtering share them.
	TagPorts int
	// Seed drives the Random replacement policy.
	Seed int64
}

// lazySetThreshold is the total line count above which a cache defers
// per-set tag storage to first touch (see New).
const lazySetThreshold = 8192

type line struct {
	valid      bool
	tag        uint64
	stamp      uint64
	prefetched bool
}

// Cache is a set-associative cache holding tags only — the simulator tracks
// presence and timing, never data.
type Cache struct {
	cfg       Config
	sets      [][]line
	lineShift uint
	setMask   uint64
	clock     uint64
	// rng drives the Random policy; nil under every other policy, which
	// never draws.
	rng *rand.Rand

	portCycle int64
	portsUsed int

	// chunks carve storage for lazily allocated sets, keeping the
	// allocation count low and touched sets adjacent in memory. arena is
	// the uncarved rest of chunks[used-1]. Reset rewinds used rather than
	// dropping the chunks, so a recycled cache refills without allocating;
	// the chunks never hold more sets than the cache has.
	chunks [][]line
	used   int
	arena  []line

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

// New builds a cache. Invalid geometry panics: the configuration comes from
// code, not user input, and a silent fix-up would skew experiments.
func New(cfg Config) *Cache {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("cache: line size %d not a power of two", cfg.LineBytes))
	}
	if cfg.Ways <= 0 {
		panic("cache: ways must be positive")
	}
	numSets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache: %dB/%dw/%dB gives %d sets (need power of two)",
			cfg.SizeBytes, cfg.Ways, cfg.LineBytes, numSets))
	}
	if cfg.TagPorts <= 0 {
		cfg.TagPorts = 1
	}
	sets := make([][]line, numSets)
	if numSets*cfg.Ways <= lazySetThreshold {
		// Small cache: one flat backing array sliced per set — two
		// allocations total and contiguous memory for the tag walks.
		backing := make([]line, numSets*cfg.Ways)
		for i := range sets {
			sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
		}
	}
	// Large caches (the megabyte-class L2) leave sets nil until first fill:
	// a simulation touches a small fraction of the tag array, so skipping
	// the up-front allocation avoids zeroing megabytes per machine and the
	// cold-page scatter on every fill. A nil set reads as all-invalid,
	// which is exactly a cold set's behaviour, so results are unchanged.
	c := &Cache{
		cfg:       cfg,
		sets:      sets,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:   uint64(numSets - 1),
		portCycle: -1,
	}
	if cfg.Repl == Random {
		c.rng = rand.New(rand.NewSource(cfg.Seed + 1))
	}
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// NumSets returns the set count.
func (c *Cache) NumSets() int { return len(c.sets) }

// LineAddr aligns addr down to its cache line.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr &^ uint64(c.cfg.LineBytes-1) }

func (c *Cache) setAndTag(addr uint64) (int, uint64) {
	l := addr >> c.lineShift
	return int(l & c.setMask), l >> uint(bits.TrailingZeros(uint(len(c.sets))))
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

// Access performs a demand lookup, updating replacement state on a hit.
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	si, tag := c.setAndTag(addr)
	set := c.sets[si]
	for i := range set {
		ln := &set[i]
		if ln.valid && ln.tag == tag {
			c.Hits++
			if ln.prefetched {
				c.PrefetchedHits++
				ln.prefetched = false
			}
			if c.cfg.Repl == LRU {
				c.clock++
				ln.stamp = c.clock
			}
			return true
		}
	}
	c.Misses++
	return false
}

// Probe performs a tag check without touching replacement state or demand
// counters — the cache-probe-filtering primitive.
func (c *Cache) Probe(addr uint64) bool {
	c.Probes++
	si, tag := c.setAndTag(addr)
	for i := range c.sets[si] {
		if c.sets[si][i].valid && c.sets[si][i].tag == tag {
			c.ProbeHits++
			return true
		}
	}
	return false
}

// Contains reports presence without any statistics side effects.
func (c *Cache) Contains(addr uint64) bool {
	si, tag := c.setAndTag(addr)
	for i := range c.sets[si] {
		if c.sets[si][i].valid && c.sets[si][i].tag == tag {
			return true
		}
	}
	return false
}

// Fill installs the line containing addr, returning the evicted line
// address when a valid victim was displaced. prefetched marks lines
// installed by a prefetcher for useful-prefetch accounting.
func (c *Cache) Fill(addr uint64, prefetched bool) (evicted uint64, didEvict bool) {
	si, tag := c.setAndTag(addr)
	set := c.sets[si]
	if set == nil {
		if len(c.arena) < c.cfg.Ways {
			c.nextChunk()
		}
		set = c.arena[:c.cfg.Ways:c.cfg.Ways]
		c.arena = c.arena[c.cfg.Ways:]
		c.sets[si] = set
	}
	c.clock++
	// Already present: refresh only.
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			if c.cfg.Repl == LRU {
				set[i].stamp = c.clock
			}
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
		switch c.cfg.Repl {
		case Random:
			victim = c.rng.Intn(len(set))
		default: // LRU and FIFO both evict the minimum stamp
			victim = 0
			for i := 1; i < len(set); i++ {
				if set[i].stamp < set[victim].stamp {
					victim = i
				}
			}
		}
		didEvict = true
		evicted = c.reconstructAddr(si, set[victim].tag)
		c.Evictions++
	}
	set[victim] = line{valid: true, tag: tag, stamp: c.clock, prefetched: prefetched}
	c.Fills++
	return evicted, didEvict
}

// nextChunk points arena at the next set chunk: a chunk an earlier
// generation carved, cleared (its sets belonged to that generation), or a
// new zeroed one once those run out.
func (c *Cache) nextChunk() {
	if c.used < len(c.chunks) {
		c.arena = c.chunks[c.used]
		clear(c.arena)
	} else {
		// 256 sets a chunk, or every set when there are fewer: set counts
		// are powers of two, so the chunks never outgrow the capacity.
		c.arena = make([]line, c.cfg.Ways*min(256, len(c.sets)))
		c.chunks = append(c.chunks, c.arena)
	}
	c.used++
}

// Invalidate removes the line containing addr, reporting whether it was
// present.
func (c *Cache) Invalidate(addr uint64) bool {
	si, tag := c.setAndTag(addr)
	set := c.sets[si]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i] = line{}
			return true
		}
	}
	return false
}

// InvalidateAll empties the cache.
func (c *Cache) InvalidateAll() {
	for _, set := range c.sets {
		for i := range set {
			set[i] = line{}
		}
	}
}

// Reset restores the pristine just-constructed state: every line invalid,
// replacement clock and port state rewound, counters zeroed, and the Random
// policy's RNG reseeded to its initial stream. Flat-backed caches keep their
// backing array and zero it; lazily backed caches (the megabyte-class L2)
// instead unlink their set slices and rewind the chunk cursor, exactly
// reproducing a fresh machine's cold tag array. Chunks are cleared as Fill
// reuses them, so a reset never zeroes the whole capacity, and a recycled
// cache refills without allocating.
func (c *Cache) Reset() {
	if len(c.sets)*c.cfg.Ways <= lazySetThreshold {
		for _, set := range c.sets {
			clear(set)
		}
	} else {
		clear(c.sets)
		c.arena = nil
		c.used = 0
	}
	c.clock = 0
	if c.rng != nil {
		c.rng.Seed(c.cfg.Seed + 1)
	}
	c.portCycle = -1
	c.portsUsed = 0
	c.Accesses, c.Hits, c.Misses = 0, 0, 0
	c.Probes, c.ProbeHits = 0, 0
	c.Fills, c.Evictions = 0, 0
	c.PrefetchedHits = 0
	c.PortGrants, c.PortRejections = 0, 0
}

// reconstructAddr rebuilds a line address from set index and tag.
func (c *Cache) reconstructAddr(si int, tag uint64) uint64 {
	setBits := uint(bits.TrailingZeros(uint(len(c.sets))))
	return ((tag << setBits) | uint64(si)) << c.lineShift
}

// MissRate returns demand misses per demand access.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// String describes the geometry.
func (c *Cache) String() string {
	return fmt.Sprintf("%dKB %d-way %dB-line %s",
		c.cfg.SizeBytes/1024, c.cfg.Ways, c.cfg.LineBytes, c.cfg.Repl)
}
