package frontend

import (
	"testing"

	"fdip/internal/cache"
	"fdip/internal/memsys"
	"fdip/internal/oracle"
	"fdip/internal/pipe"
)

// feRig assembles a fetch engine over the BPU rig's shared structures.
type feRig struct {
	*bpuRig
	l1i  *cache.Cache
	pfb  *cache.PrefetchBuffer
	hier *memsys.Hierarchy
	ar   *pipe.Arena
	fe   *FetchEngine
}

func newFERig(t testing.TB, seed int64) *feRig {
	t.Helper()
	im := loopImage(t)
	r := &feRig{
		bpuRig: newBPURig(im.Entry, 8),
		l1i:    cache.New(cache.Config{SizeBytes: 1024, Ways: 2, LineBytes: 32, TagPorts: 2}),
		pfb:    cache.NewPrefetchBuffer(8, 32),
		hier: memsys.New(memsys.Config{
			LineBytes: 32, L2SizeBytes: 1 << 16, L2Ways: 4,
			L2HitLatency: 8, MemLatency: 40, BusCyclesPerLine: 4,
		}),
		ar: pipe.NewArena(64),
	}
	r.fe = NewFetchEngine(im, oracle.NewWalker(im, seed), r.q, r.ar, r.l1i, r.pfb, r.hier, 4, nil, false)
	return r
}

// reset restores the whole rig, as the owning processor's Reset would, onto
// a new oracle stream over the same image.
func (r *feRig) reset(t testing.TB, seed int64) {
	t.Helper()
	im := loopImage(t)
	r.l1i.Reset()
	r.pfb.Reset()
	r.hier.Reset()
	r.ftb.Reset()
	r.dir.Reset()
	r.ras.Reset()
	r.q.Reset()
	r.bpu.Reset(im.Entry)
	r.ar.Reset()
	r.fe.Reset(im, oracle.NewWalker(im, seed))
}

// feTrace drives the decoupled front end for n cycles — BPU filling the FTQ,
// fetch draining it through the L1-I with misses going to the hierarchy —
// and records the delivered uop stream plus the front-end counters.
func (r *feRig) feTrace(n int64) []uint64 {
	var out []uint64
	fill := func(tr *memsys.Transfer) { r.l1i.Fill(tr.Line, tr.Prefetch) }
	for now := int64(0); now < n; now++ {
		r.hier.DrainCompleted(now, fill)
		first, cnt := r.fe.Tick(now, 8)
		for i, idx := 0, first; i < cnt; i, idx = i+1, r.ar.Next(idx) {
			u := r.ar.At(idx)
			out = append(out, u.Seq, u.PC, u.PredNextPC)
			if u.Mispredicted {
				out = append(out, uint64(u.MissKind)+1)
				// Resolve immediately: squash, train, and redirect, as
				// the core would after the backend resolves.
				r.q.Squash()
				if u.Instr.IsCTI() {
					r.ftb.TrainBlock(u.BlockStart, u.BlockLen, u.Instr.Kind, u.ActualNextPC)
				}
				r.bpu.RepairAfterMispredict(u.Instr.Kind, u.HistCP, u.RASCP, u.PC, u.ActualTaken)
				r.bpu.Redirect(u.ActualNextPC, now+2)
				r.fe.Redirect()
				break
			}
		}
		r.ar.FreeOldest(cnt) // no backend in this rig: release every slot
		r.bpu.Tick(now)
	}
	return append(out,
		r.fe.DemandAccesses, r.fe.L1Hits, r.fe.PFBHits, r.fe.FullMisses, r.fe.LateMerges,
		r.fe.Delivered, r.fe.WrongPath, r.fe.OutOfImage,
		r.fe.StallCycles, r.fe.IdleNoFTQ, r.fe.BackendFull,
		r.bpu.Blocks, r.bpu.FTBMisses, r.bpu.FullStalls, r.bpu.RASUnderflows)
}

// TestFrontendResetEqualsFresh dirties the decoupled front end (warm FTB,
// trained predictor, an in-flight demand miss), resets the whole rig, and
// requires the exact observable behaviour of a freshly constructed one.
func TestFrontendResetEqualsFresh(t *testing.T) {
	dirty := newFERig(t, 1)
	dirty.feTrace(400)
	dirty.reset(t, 2)
	got := dirty.feTrace(400)
	want := newFERig(t, 2).feTrace(400)
	if len(got) != len(want) {
		t.Fatalf("trace lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("reset front end diverged from fresh at trace step %d: %d != %d", i, got[i], want[i])
		}
	}
}
