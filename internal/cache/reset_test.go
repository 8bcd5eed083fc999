package cache

import (
	"math/rand"
	"testing"
)

// cacheTrace drives a deterministic pseudo-random op mix over the cache,
// with addresses spanning the given number of 32-byte lines, and records
// every observable outcome plus the final counters.
func cacheTrace(c *Cache, seed int64, ops, lines int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	var out []uint64
	record := func(b bool) {
		if b {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	for i := 0; i < ops; i++ {
		addr := uint64(rng.Intn(lines)) * 32
		now := int64(i / 3)
		switch rng.Intn(6) {
		case 0:
			record(c.Access(addr))
		case 1:
			record(c.Probe(addr))
		case 2:
			record(c.Contains(addr))
		case 3:
			ev, did := c.Fill(addr, rng.Intn(2) == 0)
			record(did)
			out = append(out, ev)
		case 4:
			record(c.Invalidate(addr))
		case 5:
			record(c.TryUsePort(now))
			out = append(out, uint64(c.IdlePorts(now)))
		}
	}
	out = append(out, c.Accesses, c.Hits, c.Misses, c.Probes, c.ProbeHits,
		c.Fills, c.Evictions, c.PrefetchedHits, c.PortGrants, c.PortRejections)
	return out
}

// TestCacheResetEqualsFresh dirties a cache, resets it, and requires the
// exact observable behaviour of a freshly constructed cache, per geometry:
// flat-backed and lazily chunked.
func TestCacheResetEqualsFresh(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{name: "small-lru", cfg: Config{SizeBytes: 2048, Ways: 2, LineBytes: 32, TagPorts: 2}},
		{name: "large-lazy-arena", cfg: Config{SizeBytes: 1 << 20, Ways: 8, LineBytes: 32, TagPorts: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.cfg.SizeBytes == 1<<20 {
				// Confirm this geometry actually exercises the lazy path.
				if n := tc.cfg.SizeBytes / tc.cfg.LineBytes; n <= lazySetThreshold {
					t.Fatalf("geometry has %d lines; want > %d (lazy)", n, lazySetThreshold)
				}
			}
			ops, lines := 4000, 1<<14
			dirty := New(tc.cfg)
			cacheTrace(dirty, 1, ops, lines) // dirty with one trace...
			dirty.Reset()
			got := cacheTrace(dirty, 2, ops, lines) // ...then observe another
			fresh := New(tc.cfg)
			want := cacheTrace(fresh, 2, ops, lines)
			requireSameTrace(t, got, want)
		})
	}
}

// requireSameTrace fails t unless two cacheTrace outcomes are identical.
func requireSameTrace(t *testing.T, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trace lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("reset cache diverged from fresh at trace step %d: %d != %d", i, got[i], want[i])
		}
	}
}

// TestLazyCacheResetRecyclesChunks drives a lazily chunked cache through
// generations whose traces touch more sets each time, so a later
// generation first reuses (and must clear) the chunks an earlier one
// carved, then carves past them — and a final, narrower generation reuses
// only a prefix. Every generation must match a fresh cache, the slot index
// must map the generation's backed sets one-to-one onto its carve
// positions, and the retained chunks never exceed the cache's capacity.
func TestLazyCacheResetRecyclesChunks(t *testing.T) {
	cfg := Config{SizeBytes: 1 << 20, Ways: 8, LineBytes: 32, TagPorts: 4}
	c := New(cfg)
	maxLines := c.numSets * cfg.Ways
	for gen, lines := range []int{1 << 9, 1 << 12, 1 << 15, 1 << 10} {
		seed := int64(gen + 1)
		c.Reset()
		got := cacheTrace(c, seed, 8000, lines)
		want := cacheTrace(New(cfg), seed, 8000, lines)
		requireSameTrace(t, got, want)
		backed := make([]bool, c.carved)
		for si, s := range c.slot {
			if s == 0 {
				continue
			}
			if int(s) > c.carved || backed[s-1] {
				t.Fatalf("generation %d: set %d has slot %d; want a carve position below %d used once", gen, si, s, c.carved)
			}
			backed[s-1] = true
		}
		for p, ok := range backed {
			if !ok {
				t.Fatalf("generation %d: carve position %d backs no set", gen, p)
			}
		}
		retained := 0
		for _, ch := range c.chunks {
			retained += len(ch)
		}
		if retained > maxLines {
			t.Fatalf("generation %d: chunks retain %d lines; want <= %d (the cache's capacity)", gen, retained, maxLines)
		}
	}
	if len(c.chunks) < 2 {
		t.Fatalf("only %d chunks carved; the test no longer carves past the first", len(c.chunks))
	}
}

// TestLazyCacheResetZeroAlloc requires a warmed lazily chunked cache to
// reset and refill without allocating: the pooled machine's L2 does this
// once per point.
func TestLazyCacheResetZeroAlloc(t *testing.T) {
	c := New(Config{SizeBytes: 1 << 20, Ways: 8, LineBytes: 32, TagPorts: 4})
	fill := func() {
		for i := uint64(0); i < 1<<14; i++ {
			c.Fill(i*32*7, false)
		}
	}
	fill()
	allocs := testing.AllocsPerRun(10, func() {
		c.Reset()
		fill()
	})
	if allocs != 0 {
		t.Errorf("Reset plus refill of a warmed lazy cache allocates %.1f objects per run; want 0", allocs)
	}
}

// TestPrefetchBufferResetEqualsFresh does the same for the prefetch buffer.
func TestPrefetchBufferResetEqualsFresh(t *testing.T) {
	pfbTrace := func(p *PrefetchBuffer, seed int64) []uint64 {
		rng := rand.New(rand.NewSource(seed))
		var out []uint64
		for i := 0; i < 500; i++ {
			addr := uint64(rng.Intn(64)) * 32
			switch rng.Intn(3) {
			case 0:
				p.Insert(addr)
			case 1:
				if p.Take(addr) {
					out = append(out, addr|1)
				}
			case 2:
				if p.Contains(addr) {
					out = append(out, addr)
				}
			}
			out = append(out, uint64(p.Occupancy()))
		}
		return append(out, p.Inserts, p.Hits, p.Evictions)
	}
	for _, entries := range []int{0, 8, 32} {
		dirty := NewPrefetchBuffer(entries, 32)
		pfbTrace(dirty, 1)
		dirty.Reset()
		got := pfbTrace(dirty, 2)
		want := pfbTrace(NewPrefetchBuffer(entries, 32), 2)
		if len(got) != len(want) {
			t.Fatalf("entries=%d: trace lengths differ", entries)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("entries=%d: reset PFB diverged at step %d", entries, i)
			}
		}
	}
}
