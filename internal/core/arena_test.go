package core

import (
	"reflect"
	"testing"

	"fdip/internal/oracle"
	"fdip/internal/pipe"
)

// TestArenaSteadyStateZeroAlloc extends the allocation gate to the arena
// data path: steady-state scheduled execution — Step plus skipIdle, with
// mispredict squashes and misfetch recovery recycling arena slots
// throughout — must allocate nothing once warm. CI runs this alongside
// TestStepZeroAlloc and TestScheduledKernelZeroAlloc.
func TestArenaSteadyStateZeroAlloc(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1ISizeBytes = 8 * 1024
	cfg.FTQEntries = 64
	cfg.Mem.MemLatency = 300
	cfg.MaxInstrs = 1 << 62
	im := testImage(t, 9, 60)
	p := MustNew(cfg, im, oracle.NewWalker(im, 17))
	for i := 0; i < 200_000; i++ {
		p.Step()
		p.skipIdle()
	}
	before := p.be.MispredictsResolved
	if avg := testing.AllocsPerRun(5000, func() {
		p.Step()
		p.skipIdle()
	}); avg != 0 {
		t.Fatalf("arena kernel allocates %.3f times per iteration in steady state; want 0", avg)
	}
	// The gate only means something if squash/recycle paths actually ran
	// inside the measured window.
	resolved := uint64(0)
	for i, m := range p.be.MispredictsResolved {
		resolved += m - before[i]
	}
	if resolved == 0 {
		t.Fatal("no mispredicts resolved during the measured window; the squash path was not exercised")
	}
}

// TestOnCommitPointerNotRetained pins the OnCommitRange no-retention contract
// the arena depends on: each *pipe.Uop the callback walks aliases arena
// storage that is recycled after the callback returns, so no caller may rely
// on the pointed-to contents afterwards. The test retains each committed
// uop's pointer and scribbles over it at the start of the next commit's
// callback — the earliest moment the contract says the storage is dead —
// then requires results bit-identical to an undisturbed run. Any component
// that read a retained uop after its callback returned would see the
// scribbles and diverge. (The current uop is left alone: Tick's redirect
// return may alias a branch committing in the same cycle, and that pointer
// is contractually live until the caller's step finishes.)
func TestOnCommitPointerNotRetained(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Prefetch.Kind = PrefetchFDP
	cfg.MaxInstrs = 150_000
	im := testImage(t, 21, 80)

	clean := MustNew(cfg, im, oracle.NewWalker(im, 5))
	want := clean.Run()

	scribbled := MustNew(cfg, im, oracle.NewWalker(im, 5))
	orig := scribbled.be.OnCommitRange
	ar := scribbled.be.Arena()
	var retained *pipe.Uop
	scribbled.be.OnCommitRange = func(first uint32, n int) {
		ai := first
		for i := 0; i < n; i++ {
			if retained != nil {
				*retained = pipe.Uop{Seq: ^uint64(0), PC: 0xdead_dead_dead, Mispredicted: true}
			}
			orig(ai, 1)
			retained = ar.At(ai)
			ai = ar.Next(ai)
		}
	}
	got := scribbled.Run()

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scribbling committed uops after the observer ran changed results:\ngot  %+v\nwant %+v", got, want)
	}
}
