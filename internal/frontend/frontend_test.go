package frontend

import (
	"math"
	"testing"

	"fdip/internal/bpred"
	"fdip/internal/btb"
	"fdip/internal/cache"
	"fdip/internal/ftq"
	"fdip/internal/isa"
	"fdip/internal/memsys"
	"fdip/internal/oracle"
	"fdip/internal/pipe"
	"fdip/internal/program"
)

// mkImage hand-builds a validated image at base 0x1000.
func mkImage(t testing.TB, code []isa.Instr, behav map[int]program.Behavior) *program.Image {
	t.Helper()
	im := &program.Image{
		Base:  0x1000,
		Code:  code,
		Funcs: []program.Func{{Name: "f0000", Entry: 0x1000, NumInstrs: len(code)}},
		Entry: 0x1000,
	}
	for i := range code {
		if b, ok := behav[i]; ok {
			im.Behav = append(im.Behav, program.Branch{Word: i, Behavior: b})
		}
	}
	if err := im.Validate(); err != nil {
		t.Fatalf("hand-built image invalid: %v", err)
	}
	return im
}

func alu() isa.Instr {
	return isa.Instr{Kind: isa.ALU, Dst: 1, Src1: 2, Src2: isa.NoReg}
}

// loopImage: 6 instrs; a backward loop branch at word 4 and a jump to self
// region at word 5 (so the walker never leaves the image).
//
//	0x1000 alu
//	0x1004 alu
//	0x1008 alu
//	0x100c alu
//	0x1010 bcond -> 0x1000 (loop, trip ~4)
//	0x1014 jump  -> 0x1000
func loopImage(t testing.TB) *program.Image {
	code := []isa.Instr{
		alu(), alu(), alu(), alu(),
		{Kind: isa.CondBranch, Target: 0x1000},
		{Kind: isa.Jump, Target: 0x1000},
	}
	return mkImage(t, code, map[int]program.Behavior{
		4: {Model: program.ModelLoop, MeanTrip: 4},
	})
}

type bpuRig struct {
	ftb *btb.TargetBuffer
	dir bpred.Predictor
	ras *bpred.RAS
	q   *ftq.Queue
	bpu *BPU
}

func newBPURig(entry uint64, ftqCap int) *bpuRig {
	r := &bpuRig{
		ftb: btb.New(btb.Config{Sets: 64, Ways: 4, BlockOriented: true, MaxBlockInstrs: 8, AddrBits: 48}),
		dir: bpred.NewHybrid(1024, 8),
		ras: bpred.NewRAS(8),
		q:   ftq.New(ftqCap, 32),
	}
	r.bpu = NewBPU(r.ftb, r.dir, r.ras, r.q, entry, 8)
	return r
}

// rasHolds reports whether ras holds exactly addrs, oldest first: its repair
// checkpoint (top index, depth, top value) equals that of a fresh stack of
// the rig's capacity that pushed them.
func rasHolds(ras *bpred.RAS, addrs ...uint64) bool {
	ref := bpred.NewRAS(8)
	for _, a := range addrs {
		ref.Push(a)
	}
	return ras.Checkpoint() == ref.Checkpoint()
}

func TestBPUSequentialOnFTBMiss(t *testing.T) {
	r := newBPURig(0x1000, 4)
	r.bpu.Tick(0)
	r.bpu.Tick(1)
	if r.q.Len() != 2 {
		t.Fatalf("FTQ len = %d", r.q.Len())
	}
	b0, b1 := r.q.At(0), r.q.At(1)
	if b0.Start != 0x1000 || b0.NumInstrs != 8 || b0.EndsInCTI {
		t.Errorf("block0 = %+v", b0)
	}
	if b1.Start != 0x1000+8*4 {
		t.Errorf("block1 start = %#x", b1.Start)
	}
	if r.bpu.FTBMisses != 2 {
		t.Errorf("FTBMisses = %d", r.bpu.FTBMisses)
	}
}

func TestBPUFollowsTakenPrediction(t *testing.T) {
	r := newBPURig(0x1000, 4)
	// Train: block at 0x1000, 3 instrs, ends in jump to 0x2000.
	r.ftb.TrainBlock(0x1000, 3, isa.Jump, 0x2000)
	r.bpu.Tick(0)
	b := r.q.At(0)
	if !b.EndsInCTI || b.CTIKind != isa.Jump || !b.PredTaken || b.PredTarget != 0x2000 {
		t.Fatalf("block = %+v", b)
	}
	if r.bpu.pc != 0x2000 {
		t.Errorf("BPU PC = %#x, want 0x2000", r.bpu.pc)
	}
}

func TestBPUConditionalUsesDirectionPredictor(t *testing.T) {
	r := newBPURig(0x1000, 16)
	r.ftb.TrainBlock(0x1000, 2, isa.CondBranch, 0x3000)
	// Train the predictor strongly not-taken for the branch at 0x1004.
	for i := 0; i < 8; i++ {
		r.dir.Commit(0x1004, 0, false)
	}
	r.bpu.Tick(0)
	b := r.q.At(0)
	if b.PredTaken {
		t.Fatal("predicted taken against trained bias")
	}
	if r.bpu.pc != 0x1008 {
		t.Errorf("fall-through PC = %#x", r.bpu.pc)
	}
}

func TestBPUCallPushesAndReturnPops(t *testing.T) {
	r := newBPURig(0x1000, 16)
	// Call block: 0x1000..0x1004 (2 instrs), call at 0x1004 -> 0x5000.
	r.ftb.TrainBlock(0x1000, 2, isa.Call, 0x5000)
	// Return block at 0x5000, 1 instr.
	r.ftb.TrainBlock(0x5000, 1, isa.Ret, 0)
	r.bpu.Tick(0)
	if !rasHolds(r.ras, 0x1008) {
		t.Fatalf("RAS %+v after call, want just 0x1008", r.ras.Checkpoint())
	}
	r.bpu.Tick(1)
	b := r.q.At(1)
	if b.CTIKind != isa.Ret || b.PredTarget != 0x1008 {
		t.Fatalf("return block = %+v (want target 0x1008)", b)
	}
	popped := bpred.NewRAS(8)
	popped.Push(0x1008)
	popped.Pop()
	if r.ras.Checkpoint() != popped.Checkpoint() {
		t.Errorf("RAS %+v after return, want the call's entry popped", r.ras.Checkpoint())
	}
}

func TestBPUReturnUnderflowFallsBack(t *testing.T) {
	r := newBPURig(0x5000, 16)
	r.ftb.TrainBlock(0x5000, 1, isa.Ret, 0x7777<<2)
	r.bpu.Tick(0)
	if r.bpu.RASUnderflows != 1 {
		t.Errorf("RASUnderflows = %d", r.bpu.RASUnderflows)
	}
	if got := r.q.At(0).PredTarget; got != 0x7777<<2 {
		t.Errorf("fallback target = %#x", got)
	}
}

func TestBPUFTQFullStall(t *testing.T) {
	r := newBPURig(0x1000, 2)
	for i := int64(0); i < 5; i++ {
		r.bpu.Tick(i)
	}
	if r.q.Len() != 2 {
		t.Errorf("FTQ len = %d", r.q.Len())
	}
	if r.bpu.FullStalls != 3 {
		t.Errorf("FullStalls = %d", r.bpu.FullStalls)
	}
}

func TestBPURedirectWaitsForResume(t *testing.T) {
	r := newBPURig(0x1000, 8)
	r.bpu.Redirect(0x9000, 5)
	r.bpu.Tick(3) // before resume
	if r.q.Len() != 0 {
		t.Fatal("BPU predicted during redirect latency")
	}
	r.bpu.Tick(5)
	if r.q.Len() != 1 || r.q.At(0).Start != 0x9000 {
		t.Fatalf("after resume: len=%d", r.q.Len())
	}
}

func TestBPURepairAfterMispredict(t *testing.T) {
	r := newBPURig(0x1000, 8)
	histBefore := r.dir.History()
	rasBefore := r.ras.Checkpoint()
	// Simulate wrong-path damage.
	r.dir.Predict(0x1004)
	r.dir.Predict(0x1008)
	r.ras.Push(0xbad0)
	r.ras.Push(0xbad4)
	// Repair for a mispredicted call at 0x2000.
	r.bpu.RepairAfterMispredict(isa.Call, histBefore, rasBefore, 0x2000, true)
	if !rasHolds(r.ras, 0x2004) {
		t.Fatalf("RAS %+v, want just 0x2004 (repaired + call push)", r.ras.Checkpoint())
	}
	// Repair for a mispredicted conditional shifts actual outcome in.
	r.bpu.RepairAfterMispredict(isa.CondBranch, 0, bpred.RASCheckpoint{}, 0x3000, true)
	if got := r.dir.History(); got != 1 {
		t.Errorf("history after conditional repair = %#x, want 1", got)
	}
}

// fetchRig wires a full front end over an image.
type fetchRig struct {
	im   *program.Image
	l1i  *cache.Cache
	pfb  *cache.PrefetchBuffer
	hier *memsys.Hierarchy
	q    *ftq.Queue
	ar   *pipe.Arena
	bpu  *bpuRig
	fe   *FetchEngine
}

func newFetchRig(t testing.TB, im *program.Image, pred bpred.Predictor) *fetchRig {
	r := &fetchRig{im: im}
	r.l1i = cache.New(cache.Config{SizeBytes: 2048, Ways: 2, LineBytes: 32, TagPorts: 2})
	r.pfb = cache.NewPrefetchBuffer(8, 32)
	r.hier = memsys.New(memsys.Config{LineBytes: 32, L2SizeBytes: 1 << 16, L2Ways: 4, L2HitLatency: 6, MemLatency: 20, BusCyclesPerLine: 2})
	r.ar = pipe.NewArena(64)
	r.bpu = newBPURig(im.Entry, 8)
	if pred != nil {
		r.bpu.dir = pred
		r.bpu.bpu = NewBPU(r.bpu.ftb, pred, r.bpu.ras, r.bpu.q, im.Entry, 8)
	}
	r.q = r.bpu.q
	r.fe = NewFetchEngine(im, oracle.NewWalker(im, 3), r.q, r.ar, r.l1i, r.pfb, r.hier, 4, nil, false)
	return r
}

// drain copies out the delivered range and releases its arena slots — this
// rig has no backend to commit (and thereby free) them.
func (r *fetchRig) drain(first uint32, n int) []uopLite {
	out := make([]uopLite, 0, n)
	idx := first
	for i := 0; i < n; i++ {
		u := r.ar.At(idx)
		out = append(out, uopLite{pc: u.PC, correct: u.OnCorrectPath, mis: u.Mispredicted})
		idx = r.ar.Next(idx)
	}
	r.ar.FreeOldest(n)
	return out
}

// tick runs one fetch cycle and returns the delivered count, releasing the
// slots.
func (r *fetchRig) tick(now int64, accept int) int {
	first, n := r.fe.Tick(now, accept)
	r.drain(first, n)
	return n
}

// step advances BPU + completions + fetch one cycle, collecting uops.
func (r *fetchRig) step(now int64) []uopLite {
	r.hier.DrainCompleted(now, func(tr *memsys.Transfer) {
		if tr.Prefetch && !tr.DemandMerged {
			r.pfb.Insert(tr.Line)
		} else {
			r.l1i.Fill(tr.Line, tr.Prefetch)
		}
	})
	first, n := r.fe.Tick(now, 16)
	r.bpu.bpu.Tick(now)
	return r.drain(first, n)
}

type uopLite struct {
	pc      uint64
	correct bool
	mis     bool
}

func TestFetchDeliversOracleOrder(t *testing.T) {
	im := loopImage(t)
	rig := newFetchRig(t, im, nil)
	ref := oracle.NewWalker(im, 3)

	var delivered []uopLite
	for now := int64(0); now < 3000 && len(delivered) < 500; now++ {
		delivered = append(delivered, rig.step(now)...)
		// This rig never redirects (no backend); stop at the first
		// mispredict since everything after is wrong-path.
		for i, u := range delivered {
			if u.mis {
				delivered = delivered[:i+1]
				now = 1 << 40
				break
			}
		}
	}
	if len(delivered) == 0 {
		t.Fatal("nothing delivered")
	}
	for i, u := range delivered {
		if !u.correct {
			t.Fatalf("uop %d wrong-path before first mispredict", i)
		}
		var rec oracle.Record
		ref.NextInto(&rec)
		if u.pc != rec.PC {
			t.Fatalf("uop %d: pc %#x, oracle %#x", i, u.pc, rec.PC)
		}
	}
}

func TestFetchStallsOnMissThenResumes(t *testing.T) {
	im := loopImage(t)
	rig := newFetchRig(t, im, nil)
	rig.bpu.bpu.Tick(0) // prime FTQ

	if got := rig.tick(1, 16); got != 0 {
		t.Fatalf("delivered %d uops through a cold cache", got)
	}
	if rig.fe.FullMisses != 1 {
		t.Fatalf("FullMisses = %d", rig.fe.FullMisses)
	}
	// Latency: bus 2 + L2 6 + mem 20 = 28 cycles. Fill + fetch at 29.
	var uops []uopLite
	for now := int64(2); now < 40; now++ {
		uops = append(uops, rig.step(now)...)
	}
	if len(uops) == 0 {
		t.Fatal("never resumed after miss")
	}
	if rig.fe.StallCycles == 0 {
		t.Error("no stall cycles counted")
	}
}

func TestFetchPFBHitMovesLineToL1(t *testing.T) {
	im := loopImage(t)
	rig := newFetchRig(t, im, nil)
	rig.pfb.Insert(0x1000)
	rig.bpu.bpu.Tick(0)
	if got := rig.tick(1, 16); got == 0 {
		t.Fatal("PFB hit did not deliver")
	}
	if rig.fe.PFBHits != 1 {
		t.Errorf("PFBHits = %d", rig.fe.PFBHits)
	}
	if !rig.l1i.Contains(0x1000) {
		t.Error("line not moved into L1-I")
	}
	if rig.pfb.Contains(0x1000) {
		t.Error("line still in prefetch buffer")
	}
}

func TestFetchWrongPathAfterMispredict(t *testing.T) {
	im := loopImage(t)
	// Static not-taken predictor: the loop branch (taken ~4x) mispredicts
	// immediately once the FTB knows the block.
	rig := newFetchRig(t, im, &bpred.Static{})
	rig.bpu.ftb.TrainBlock(0x1000, 5, isa.CondBranch, 0x1000)

	var all []uopLite
	for now := int64(0); now < 200; now++ {
		all = append(all, rig.step(now)...)
	}
	misAt := -1
	for i, u := range all {
		if u.mis {
			misAt = i
			break
		}
	}
	if misAt < 0 {
		t.Fatal("no mispredict observed")
	}
	for i := misAt + 1; i < len(all); i++ {
		if all[i].correct {
			t.Fatalf("uop %d on correct path after unresolved mispredict", i)
		}
	}
	if rig.fe.WrongPath == 0 {
		t.Error("WrongPath counter zero")
	}
}

func TestFetchBackendFullBackpressure(t *testing.T) {
	im := loopImage(t)
	rig := newFetchRig(t, im, nil)
	rig.l1i.Fill(0x1000, false)
	rig.bpu.bpu.Tick(0)
	if got := rig.tick(1, 0); got != 0 {
		t.Fatalf("delivered %d uops with zero accept", got)
	}
	if rig.fe.BackendFull != 1 {
		t.Errorf("BackendFull = %d", rig.fe.BackendFull)
	}
	// accept=2 limits the delivery burst.
	if got := rig.tick(2, 2); got > 2 {
		t.Errorf("delivered %d uops with accept=2", got)
	}
}

func TestFetchIdleWithoutFTQ(t *testing.T) {
	im := loopImage(t)
	rig := newFetchRig(t, im, nil)
	rig.tick(0, 16)
	if rig.fe.IdleNoFTQ != 1 {
		t.Errorf("IdleNoFTQ = %d", rig.fe.IdleNoFTQ)
	}
}

func TestClassifyMiss(t *testing.T) {
	cases := []struct {
		kind        isa.Kind
		predicted   bool
		predTaken   bool
		actualTaken bool
		want        pipe.MispredictKind
	}{
		{isa.CondBranch, true, false, true, pipe.MissDirection},
		{isa.CondBranch, true, true, false, pipe.MissDirection},
		{isa.CondBranch, false, false, true, pipe.MissUnseenCTI},
		{isa.Ret, true, true, true, pipe.MissReturn},
		{isa.IndirectJump, true, true, true, pipe.MissTarget},
		{isa.Jump, false, false, true, pipe.MissUnseenCTI},
		{isa.ALU, false, false, false, pipe.MissUnseenCTI},
	}
	for i, c := range cases {
		got := classifyMiss(c.kind, c.predicted, c.predTaken, c.actualTaken)
		if got != c.want {
			t.Errorf("case %d (%v): got %v, want %v", i, c.kind, got, c.want)
		}
	}
}

// TestBPUNextWork pins the scheduler-facing contract: resume cycle while
// quiesced, "now" with queue room, never while the queue is full.
func TestBPUNextWork(t *testing.T) {
	r := newBPURig(0x1000, 2)
	if got := r.bpu.NextWork(0); got != 0 {
		t.Errorf("ready with room: NextWork = %d, want 0", got)
	}
	r.bpu.Redirect(0x1000, 5)
	if got := r.bpu.NextWork(0); got != 5 {
		t.Errorf("quiesced: NextWork = %d, want resume cycle 5", got)
	}
	if got := r.bpu.NextWork(6); got != 6 {
		t.Errorf("past resume: NextWork = %d, want 6", got)
	}
	for now := int64(6); now < 11; now++ {
		r.bpu.Tick(now)
	}
	if r.bpu.Blocks != 2 || r.bpu.FullStalls != 3 {
		t.Fatalf("5 Ticks into a 2-entry queue: %d blocks, %d full stalls; want 2, 3",
			r.bpu.Blocks, r.bpu.FullStalls)
	}
	if got := r.bpu.NextWork(6); got != math.MaxInt64 {
		t.Errorf("full queue: NextWork = %d, want MaxInt64", got)
	}
}
