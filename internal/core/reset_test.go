package core_test

// Differential Reset tests for the assembled machine, built on the shared
// harness in internal/simtest (an external test package: simtest imports
// core, so these tests cannot live inside package core).

import (
	"context"
	"reflect"
	"testing"

	"fdip/internal/core"
	"fdip/internal/oracle"
	"fdip/internal/simtest"
	"fdip/internal/workloads"
)

// TestResetEqualsFreshAcrossPrefetchers proves pristine-machine semantics
// for every prefetcher kind: a machine dirtied by a full run on a different
// (workload, seed) and then Reset produces a Result DeepEqual to a freshly
// constructed machine's.
func TestResetEqualsFreshAcrossPrefetchers(t *testing.T) {
	for _, tr := range simtest.Grid() {
		t.Run(tr.Name, func(t *testing.T) {
			t.Parallel()
			simtest.RequireResetEquivalence(t, tr, simtest.DirtyVariant(tr), 0)
		})
	}
}

// TestResetFromMidFlightRun proves Reset recovers from an abandoned run —
// the state a cancelled job leaves in its worker slot's machine: stalls outstanding,
// transfers in flight, the ROB half full.
func TestResetFromMidFlightRun(t *testing.T) {
	for _, steps := range []int{1, 137, 5000} {
		for _, tr := range simtest.Grid() {
			tr := tr
			simtest.RequireResetEquivalence(t, tr, simtest.DirtyVariant(tr), steps)
		}
	}
}

// TestResetIsRepeatable chains several reset generations on one machine and
// requires every generation to reproduce the fresh result — the pool reuses
// machines indefinitely, so equivalence must not decay.
func TestResetIsRepeatable(t *testing.T) {
	tr := simtest.Grid()[3] // fdp: the most stateful machine
	fresh := simtest.FreshResult(t, tr)

	cfg := tr.Config
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	im := simtest.Image(t, tr.Workload)
	dirty := simtest.DirtyVariant(tr)
	dim := simtest.Image(t, dirty.Workload)
	p, err := core.New(cfg, im, oracle.NewWalker(im, seedOf(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < 3; gen++ {
		p.Reset(dim, oracle.NewWalker(dim, dirty.Seed))
		if _, err := p.RunContext(context.Background()); err != nil {
			t.Fatalf("gen %d dirty run: %v", gen, err)
		}
		p.Reset(im, oracle.NewWalker(im, seedOf(t, tr)))
		res, err := p.RunContext(context.Background())
		if err != nil {
			t.Fatalf("gen %d: %v", gen, err)
		}
		if !reflect.DeepEqual(fresh, res) {
			t.Fatalf("gen %d: reset result diverged from fresh\nfresh: %+v\nreset: %+v", gen, fresh, res)
		}
	}
}

// seedOf resolves a triple's effective oracle seed like the harness does.
func seedOf(t *testing.T, tr simtest.Triple) int64 {
	t.Helper()
	if tr.Seed != 0 {
		return tr.Seed
	}
	w, ok := workloads.ByName(tr.Workload)
	if !ok {
		t.Fatalf("unknown workload %q", tr.Workload)
	}
	return w.Seed
}
