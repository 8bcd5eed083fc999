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

// TestMachineFootprint bounds what a pooled machine keeps live between
// points: the retained heap of an FDP+CPF machine and its oracle walker after
// one 20k-instruction gcc point, measured as the GC'd HeapAlloc delta over 16
// machines. Every worker's machine pool holds one such machine per distinct
// config, so this is the per-config cost the pools multiply. The shared image
// and its lazily derived tables are built before the first reading and are
// not counted.
func TestMachineFootprint(t *testing.T) {
	const (
		maxBytes = 512 << 10
		machines = 16
	)
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
	cfg := core.DefaultConfig()
	cfg.Prefetch.Kind = core.PrefetchFDP
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
	t.Logf("a pooled FDP+CPF machine retains %d KB after a %d-instruction gcc point", per>>10, cfg.MaxInstrs)
	if per > maxBytes {
		t.Errorf("a pooled machine retains %d KB; want at most %d KB", per>>10, maxBytes>>10)
	}
	runtime.KeepAlive(kept)
}
