// Package simtest is the differential test harness behind the layer-wide
// Reset contract: a pooled-and-reset machine must be observationally
// identical to a freshly constructed one. "Reset equals fresh" is exactly
// the kind of invariant that rots silently — one counter a component forgets
// to zero skews a sweep without failing anything — so the harness makes the
// comparison brutal and cheap to reuse: run the same (config, workload,
// seed) triple on a fresh machine and on a machine that was deliberately
// dirtied by a different run and then Reset, and require reflect.DeepEqual
// on the full Result.
//
// Engine, core, and component tests all build on these helpers; the grid in
// Grid covers every prefetcher kind (each has its own Reset logic) plus the
// perfect-L1I and filtered-FDP variants.
package simtest

import (
	"context"
	"reflect"
	"testing"

	"fdip/internal/core"
	"fdip/internal/engine"
	"fdip/internal/oracle"
	"fdip/internal/prefetch"
	"fdip/internal/program"
	"fdip/internal/workloads"
)

// Triple names one simulation point of the differential grid.
type Triple struct {
	// Name labels the point in test output.
	Name string
	// Config describes the machine; Reset equivalence is only meaningful
	// between runs sharing the identical validated Config.
	Config core.Config
	// Workload names a calibrated benchmark from the workloads package.
	Workload string
	// Seed drives the oracle walker. Zero means the workload's calibrated
	// seed.
	Seed int64
}

// images memoises generated workload images across the test binary.
var images engine.ImageCache

// Image returns the generated image for a workload, memoised across the test
// binary so the grid does not regenerate programs per triple.
func Image(tb testing.TB, workload string) *program.Image {
	tb.Helper()
	w, ok := workloads.ByName(workload)
	if !ok {
		tb.Fatalf("simtest: unknown workload %q", workload)
	}
	im, err := images.Get(context.Background(), w.Params)
	if err != nil {
		tb.Fatalf("simtest: generate %q: %v", workload, err)
	}
	return im
}

// resolve validates the triple's config and fills its seed.
func resolve(tb testing.TB, tr Triple) (core.Config, *program.Image, int64) {
	tb.Helper()
	cfg := tr.Config
	if err := cfg.Validate(); err != nil {
		tb.Fatalf("simtest: %s: %v", tr.Name, err)
	}
	seed := tr.Seed
	if seed == 0 {
		w, _ := workloads.ByName(tr.Workload)
		seed = w.Seed
	}
	return cfg, Image(tb, tr.Workload), seed
}

// FreshResult runs the triple on a newly constructed machine — the reference
// semantics Reset must reproduce — and checks the Result's accounting
// identities.
func FreshResult(tb testing.TB, tr Triple) core.Result {
	tb.Helper()
	cfg, im, seed := resolve(tb, tr)
	p, err := core.New(cfg, im, oracle.NewWalker(im, seed))
	if err != nil {
		tb.Fatalf("simtest: %s: %v", tr.Name, err)
	}
	res := p.Run()
	checkIdentities(tb, cfg, res)
	return res
}

// ResetResult runs the triple on a machine that first ran the dirty triple
// (same Config, typically a different workload or seed) and was then Reset,
// together with its oracle walker — the pooled checkout path. dirtySteps > 0 instead abandons the dirtying run
// after that many cycles, exercising Reset from a mid-flight state (what a
// cancelled job leaves behind in the pool).
func ResetResult(tb testing.TB, tr, dirty Triple, dirtySteps int) core.Result {
	tb.Helper()
	cfg, im, seed := resolve(tb, tr)
	dcfg, dim, dseed := resolve(tb, dirty)
	if dcfg != cfg {
		tb.Fatalf("simtest: %s: dirty triple %s has a different validated config", tr.Name, dirty.Name)
	}
	w := oracle.NewWalker(dim, dseed)
	p, err := core.New(dcfg, dim, w)
	if err != nil {
		tb.Fatalf("simtest: %s: %v", dirty.Name, err)
	}
	if dirtySteps > 0 {
		for i := 0; i < dirtySteps; i++ {
			p.Step()
		}
	} else {
		p.Run()
	}
	// The pool recycles the walker with the machine, so the dirty walker is
	// reset too rather than replaced.
	w.Reset(im, seed)
	p.Reset(im, w)
	return p.Run()
}

// RequireResetEquivalence runs the triple fresh and pooled-and-reset (dirtied
// by dirty, completed or abandoned after dirtySteps) and fails the test
// unless the two Results are DeepEqual.
func RequireResetEquivalence(tb testing.TB, tr, dirty Triple, dirtySteps int) {
	tb.Helper()
	fresh := FreshResult(tb, tr)
	reset := ResetResult(tb, tr, dirty, dirtySteps)
	if !reflect.DeepEqual(fresh, reset) {
		tb.Errorf("%s: pooled-and-reset result differs from fresh machine\nfresh: %+v\nreset: %+v", tr.Name, fresh, reset)
	}
}

// Grid returns the differential grid: every prefetcher kind (each with its
// own Reset logic), the cache-probe-filtered FDP variants, and the
// perfect-L1I bound, at a budget small enough to run the whole grid in
// seconds.
func Grid() []Triple {
	const instrs = 25_000
	base := core.DefaultConfig()
	base.MaxInstrs = instrs

	mk := func(name string, mut func(*core.Config)) Triple {
		cfg := base
		if mut != nil {
			mut(&cfg)
		}
		return Triple{Name: name, Config: cfg, Workload: "gcc"}
	}
	return []Triple{
		mk("none", nil),
		mk("nextline", func(c *core.Config) { c.Prefetch.Kind = core.PrefetchNextLine }),
		mk("streambuf", func(c *core.Config) { c.Prefetch.Kind = core.PrefetchStream }),
		mk("fdp", func(c *core.Config) { c.Prefetch.Kind = core.PrefetchFDP }),
		mk("fdp+cpf", func(c *core.Config) {
			c.Prefetch.Kind = core.PrefetchFDP
			c.Prefetch.FDP.CPF = prefetch.CPFConservative
			c.Prefetch.FDP.RemoveCPF = true
		}),
		mk("perfect", func(c *core.Config) { c.PerfectL1I = true }),
		mk("mana", func(c *core.Config) { c.Prefetch.Kind = core.PrefetchMANA }),
		mk("shadow", func(c *core.Config) { c.Prefetch.Kind = core.PrefetchShadow }),
		// A chronically operand-blocked backend: a two-entry issue window
		// behind a single issue port keeps the wakeup scheduler's unissued
		// bitmap and wake bound populated at essentially every cycle, so
		// the mid-flight Reset tests abandon this machine with live
		// scheduler state — the differential that catches a scheduler
		// structure surviving Reset.
		mk("tiny-window", func(c *core.Config) {
			c.Backend.IssueWindow = 2
			c.Backend.IssueWidth = 1
			c.Prefetch.Kind = core.PrefetchFDP
		}),
	}
}

// DirtyVariant derives a run that shares tr's machine shape but walks a
// different dynamic path (another workload and seed) — the state a pooled
// machine realistically carries from its previous job.
func DirtyVariant(tr Triple) Triple {
	d := tr
	d.Name = tr.Name + "/dirty"
	d.Workload = "perl"
	d.Seed = tr.Seed + 7919
	if d.Seed == 0 {
		d.Seed = 7919
	}
	return d
}
