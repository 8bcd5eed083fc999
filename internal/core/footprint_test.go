package core_test

import (
	"runtime"
	"testing"

	"fdip/internal/core"
	"fdip/internal/oracle"
	"fdip/internal/prefetch"
	"fdip/internal/program"
	"fdip/internal/workloads"
)

// TestMachineFootprint bounds what a machine keeps live between points,
// under every prefetcher kind: the retained heap of a machine and its oracle
// walker after one 20k-instruction gcc point, measured as the GC'd HeapAlloc
// delta over 16 machines. An engine keeps one such machine per worker slot,
// whatever the config mix, so this is the per-worker cost of a machine; the
// fdp row is FDP+CPF, the largest. The shared image and its lazily derived
// tables are built before the first reading and are not counted.
func TestMachineFootprint(t *testing.T) {
	const machines = 16
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	wl, ok := workloads.ByName("gcc")
	if !ok {
		t.Fatal("no workload gcc")
	}
	im, err := program.Generate(wl.Params)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind     core.PrefetcherKind
		maxBytes uint64
	}{
		// About 15-20% above each kind's measured footprint (333, 333,
		// 366, 431, 353 and 333 KB).
		{core.PrefetchNone, 400 << 10},
		{core.PrefetchNextLine, 400 << 10},
		{core.PrefetchStream, 440 << 10},
		{core.PrefetchFDP, 512 << 10},
		{core.PrefetchMANA, 424 << 10},
		{core.PrefetchShadow, 400 << 10},
	} {
		t.Run(string(tc.kind), func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Prefetch.Kind = tc.kind
			cfg.Prefetch.FDP.CPF = prefetch.CPFConservative
			cfg.MaxInstrs = 20_000
			point := func() *core.Processor {
				p := core.MustNew(cfg, im, oracle.NewWalker(im, wl.Seed))
				if r := p.Run(); r.Committed < cfg.MaxInstrs {
					t.Fatalf("point committed %d of %d instructions", r.Committed, cfg.MaxInstrs)
				}
				return p
			}
			point() // derives the image's tables, which every machine shares

			before := live()
			kept := make([]*core.Processor, machines)
			for i := range kept {
				kept[i] = point()
			}
			after := live()
			per := (after - before) / machines
			t.Logf("a %s machine retains %d KB after a %d-instruction gcc point", tc.kind, per>>10, cfg.MaxInstrs)
			if per > tc.maxBytes {
				t.Errorf("a %s machine retains %d KB; want at most %d KB", tc.kind, per>>10, tc.maxBytes>>10)
			}
			runtime.KeepAlive(kept)
		})
	}
}
