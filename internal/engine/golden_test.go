package engine

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"fdip/internal/core"
	"fdip/internal/prefetch"
)

// goldenChecksum is the FNV-64a digest of the full %+v rendering of the
// Result for the fixed (config, workload, seed) triple below, recorded when
// the event-scheduled cycle kernel landed. Simulation is pure deterministic
// arithmetic, so this value must never drift — across runs, worker counts,
// or future kernel optimisations. If an intentional model change shifts it,
// re-record the constant in the same commit and say so loudly in the commit
// message; an unintentional shift is a determinism regression.
const goldenChecksum = 0x47bbeda2da5f243e

func goldenJob() Job {
	cfg := core.DefaultConfig()
	cfg.MaxInstrs = 150_000
	cfg.Prefetch.Kind = core.PrefetchFDP
	cfg.Prefetch.FDP.CPF = prefetch.CPFConservative
	return Job{Workload: "gcc", Config: cfg} // seed resolves to gcc's calibrated seed
}

func resultChecksum(res core.Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", res)
	return h.Sum64()
}

// TestGoldenResultChecksum pins bit-exact reproducibility of the kernel on a
// fixed simulation point, across engine worker counts.
func TestGoldenResultChecksum(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 8} {
		res, err := New(WithWorkers(workers)).Run(ctx, goldenJob())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := resultChecksum(res); got != goldenChecksum {
			t.Errorf("workers=%d: result checksum %#x, want %#x — the kernel no longer reproduces the golden result bit-identically (cycles=%d ipc=%.4f)",
				workers, got, goldenChecksum, res.Cycles, res.IPC)
		}
	}
}

// TestGoldenResultChecksumPooledReuse pins the golden checksum on the
// reset path specifically: a one-worker engine first runs a same-config job
// with a different seed (building and dirtying the slot's machine), so the
// golden job that follows is served by that machine, Reset. The checksum
// must still match — Reset is bit-invisible.
func TestGoldenResultChecksumPooledReuse(t *testing.T) {
	ctx := context.Background()
	e := New(WithWorkers(1))
	dirty := goldenJob()
	dirty.Seed = 987654321
	if _, err := e.Run(ctx, dirty); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(ctx, goldenJob())
	if err != nil {
		t.Fatal(err)
	}
	if got := resultChecksum(res); got != goldenChecksum {
		t.Errorf("slot reuse: result checksum %#x, want %#x — Reset is not bit-invisible (cycles=%d ipc=%.4f)",
			got, goldenChecksum, res.Cycles, res.IPC)
	}
	if st := e.Stats(); st.MachinesReused != 1 {
		t.Errorf("golden job reused %d machines (built %d), want 1; test no longer covers the reset path", st.MachinesReused, st.MachinesBuilt)
	}
}

// TestGoldenStreamChecksum pins the golden checksum on the Stream path: the
// golden point delivered through a Plan stream must reproduce the pinned
// result bit-identically at every worker count, regardless of delivery
// order.
func TestGoldenStreamChecksum(t *testing.T) {
	job := goldenJob()
	dirty := job
	dirty.Seed = 24680 // a second point so delivery order is nontrivial
	for _, workers := range []int{1, 8} {
		e := New(WithWorkers(workers))
		found := false
		for out, err := range e.StreamJobs(context.Background(), []Job{dirty, job}) {
			if err != nil || out.Err != nil {
				t.Fatalf("workers=%d: %v / %v", workers, err, out.Err)
			}
			if out.Index != 1 {
				continue
			}
			found = true
			if got := resultChecksum(out.Result); got != goldenChecksum {
				t.Errorf("workers=%d: streamed golden checksum %#x, want %#x", workers, got, goldenChecksum)
			}
		}
		if !found {
			t.Fatalf("workers=%d: golden job never streamed", workers)
		}
	}
}

// TestGoldenSweepIdenticalAcrossWorkerCounts runs a small mixed sweep at
// several worker counts and requires byte-identical results, including the
// golden point.
func TestGoldenSweepIdenticalAcrossWorkerCounts(t *testing.T) {
	base := core.DefaultConfig()
	base.MaxInstrs = 40_000
	fdp := base
	fdp.Prefetch.Kind = core.PrefetchFDP
	jobs := []Job{
		{Workload: "gcc", Config: base},
		{Workload: "gcc", Config: fdp},
		{Workload: "perl", Config: fdp},
		{Workload: "vortex", Config: base},
	}
	ctx := context.Background()
	ref, err := New(WithWorkers(1)).Sweep(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		outs, err := New(WithWorkers(workers)).Sweep(ctx, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range outs {
			if outs[i].Err != nil {
				t.Fatalf("workers=%d job %d: %v", workers, i, outs[i].Err)
			}
			if a, b := resultChecksum(ref[i].Result), resultChecksum(outs[i].Result); a != b {
				t.Errorf("workers=%d job %q: checksum %#x != 1-worker %#x", workers, outs[i].Job.Name, b, a)
			}
		}
	}
}
