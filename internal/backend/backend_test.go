package backend

import (
	"testing"

	"fdip/internal/isa"
	"fdip/internal/pipe"
)

func mkUop(seq uint64, kind isa.Kind) pipe.Uop {
	return pipe.Uop{
		Seq:           seq,
		PC:            0x1000 + seq*4,
		Instr:         isa.Instr{Kind: kind, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg},
		OnCorrectPath: true,
	}
}

// Drained reports whether no work remains anywhere in the backend. Only
// tests ask: the processor's run loop ends on its instruction or cycle cap.
func (b *Backend) Drained() bool { return b.count == 0 && b.dpCount == 0 }

func smallBackend() *Backend {
	return New(Config{ROBSize: 16, IssueWidth: 2, CommitWidth: 2, IssueWindow: 8, DecodeLatency: 1, PipeCap: 8})
}

// deliver plays the fetch engine's role: write each uop once into the
// backend's arena, then hand the (first, n) range to the decode pipe.
func deliver(b *Backend, uops []pipe.Uop, now int64) {
	var first uint32
	for i, u := range uops {
		idx, slot := b.Arena().Alloc()
		*slot = u
		// The fetch engine packs the scheduler word whenever it writes
		// Instr; tests building uops by hand honour the same contract.
		slot.Sched = slot.Instr.SchedPack()
		if i == 0 {
			first = idx
		}
	}
	b.Deliver(first, len(uops), now)
}

// run drives the backend n cycles starting at cycle start.
func run(b *Backend, start, n int64) (redirects []pipe.Uop) {
	for now := start; now < start+n; now++ {
		if u := b.Tick(now); u != nil {
			redirects = append(redirects, *u)
		}
	}
	return redirects
}

// recordCommits binds b's OnCommitRange hook to append each committed
// uop's sequence number, walking the arena range during the callback as the
// no-retention contract requires.
func recordCommits(b *Backend) *[]uint64 {
	var seqs []uint64
	b.OnCommitRange = func(first uint32, n int) {
		ar := b.Arena()
		for ai, i := first, 0; i < n; ai, i = ar.Next(ai), i+1 {
			seqs = append(seqs, ar.At(ai).Seq)
		}
	}
	return &seqs
}

func TestCommitInOrder(t *testing.T) {
	b := smallBackend()
	committed := recordCommits(b)
	deliver(b, []pipe.Uop{mkUop(0, isa.ALU), mkUop(1, isa.ALU), mkUop(2, isa.Mul), mkUop(3, isa.ALU)}, 0)
	run(b, 1, 20)
	if b.Committed != 4 || len(*committed) != 4 {
		t.Fatalf("Committed = %d, observed %d commits", b.Committed, len(*committed))
	}
	for i, s := range *committed {
		if s != uint64(i) {
			t.Fatalf("commit order broken: %v", *committed)
		}
	}
	if !b.Drained() {
		t.Error("not drained")
	}
}

func TestDecodeLatencyDelaysFill(t *testing.T) {
	b := New(Config{ROBSize: 8, IssueWidth: 2, CommitWidth: 2, IssueWindow: 8, DecodeLatency: 3, PipeCap: 8})
	deliver(b, []pipe.Uop{mkUop(0, isa.ALU)}, 10)
	b.Tick(11)
	b.Tick(12)
	if b.ROBOccupancy() != 0 {
		t.Fatal("uop entered ROB before decode latency elapsed")
	}
	b.Tick(13)
	if b.ROBOccupancy() != 1 {
		t.Fatal("uop missing after decode latency")
	}
}

func TestScoreboardSerializesRAW(t *testing.T) {
	b := smallBackend()
	// u0: mul r5 <- ...(4 cycles); u1: alu reads r5.
	u0 := mkUop(0, isa.Mul)
	u0.Instr.Dst = 5
	u1 := mkUop(1, isa.ALU)
	u1.Instr.Src1 = 5
	u1.Instr.Dst = 6
	deliver(b, []pipe.Uop{u0, u1}, 0)
	b.Tick(1) // fill+issue u0 (done 1+4=5); u1 not ready
	if b.Issued != 1 {
		t.Fatalf("Issued = %d, want 1 (RAW hazard)", b.Issued)
	}
	b.Tick(2)
	b.Tick(3)
	b.Tick(4)
	if b.Issued != 1 {
		t.Fatalf("u1 issued before r5 ready (Issued=%d)", b.Issued)
	}
	b.Tick(5)
	if b.Issued != 2 {
		t.Fatalf("u1 not issued once r5 ready (Issued=%d)", b.Issued)
	}
}

func TestOutOfOrderIssueWithinWindow(t *testing.T) {
	b := smallBackend()
	// u0 long-latency producer; u1 depends on it; u2 independent.
	u0 := mkUop(0, isa.Mul)
	u0.Instr.Dst = 5
	u1 := mkUop(1, isa.ALU)
	u1.Instr.Src1 = 5
	u2 := mkUop(2, isa.ALU)
	u2.Instr.Dst = 7
	deliver(b, []pipe.Uop{u0, u1, u2}, 0)
	b.Tick(1)
	// u0 and u2 issue around the stalled u1.
	if b.Issued != 2 {
		t.Fatalf("Issued = %d, want 2 (u0 and u2)", b.Issued)
	}
}

func TestMispredictResolveRedirectsAndSquashes(t *testing.T) {
	b := smallBackend()
	br := mkUop(1, isa.CondBranch)
	br.Mispredicted = true
	br.MissKind = pipe.MissDirection
	br.ActualNextPC = 0x9000
	wrong1 := mkUop(2, isa.ALU)
	wrong1.OnCorrectPath = false
	wrong2 := mkUop(3, isa.ALU)
	wrong2.OnCorrectPath = false
	deliver(b, []pipe.Uop{mkUop(0, isa.ALU), br, wrong1, wrong2}, 0)

	redirects := run(b, 1, 10)
	if len(redirects) != 1 {
		t.Fatalf("redirects = %d", len(redirects))
	}
	if redirects[0].Seq != 1 || redirects[0].ActualNextPC != 0x9000 {
		t.Fatalf("redirect = %+v", redirects[0])
	}
	if b.Squashed != 2 {
		t.Errorf("Squashed = %d", b.Squashed)
	}
	// The branch itself and the older ALU commit; wrong-path never does.
	if b.Committed != 2 {
		t.Errorf("Committed = %d", b.Committed)
	}
	if b.MispredictsResolved[pipe.MissDirection] != 1 {
		t.Errorf("resolved by kind = %v", b.MispredictsResolved)
	}
	if !b.Drained() {
		t.Error("not drained after squash+commit")
	}
}

func TestSquashClearsYoungerWorkEverywhere(t *testing.T) {
	b := smallBackend()
	br := mkUop(0, isa.Jump)
	br.Mispredicted = true
	br.ActualNextPC = 0x8000
	deliver(b, []pipe.Uop{br}, 0)
	b.Tick(1) // fill + issue (done cycle 2)
	// Younger wrong-path work arrives while the branch executes — some
	// will be in the decode pipe, some may reach the ROB; all must die at
	// resolve.
	w1 := mkUop(1, isa.ALU)
	w1.OnCorrectPath = false
	w2 := mkUop(2, isa.ALU)
	w2.OnCorrectPath = false
	deliver(b, []pipe.Uop{w1, w2}, 1)
	red := run(b, 2, 6)
	if len(red) != 1 {
		t.Fatalf("redirects = %d", len(red))
	}
	if b.Squashed != 2 {
		t.Errorf("Squashed = %d", b.Squashed)
	}
	if b.Accept() != b.cfg.PipeCap {
		t.Errorf("decode pipe not cleared: Accept = %d", b.Accept())
	}
	if b.Committed != 1 {
		t.Errorf("Committed = %d", b.Committed)
	}
	if !b.Drained() {
		t.Error("not drained")
	}
}

func TestROBFullBackpressure(t *testing.T) {
	b := New(Config{ROBSize: 4, IssueWidth: 1, CommitWidth: 1, IssueWindow: 4, DecodeLatency: 0, PipeCap: 16})
	var uops []pipe.Uop
	for i := uint64(0); i < 8; i++ {
		u := mkUop(i, isa.Mul) // slow, so the ROB clogs
		u.Instr.Dst = uint8(1 + i)
		uops = append(uops, u)
	}
	deliver(b, uops, 0)
	b.Tick(0)
	if b.ROBOccupancy() != 4 {
		t.Fatalf("ROB occupancy = %d", b.ROBOccupancy())
	}
	if b.ROBFullCycles == 0 {
		t.Error("no ROB-full cycles counted")
	}
	// Everything drains eventually.
	run(b, 1, 60)
	if b.Committed != 8 {
		t.Errorf("Committed = %d", b.Committed)
	}
}

func TestAcceptTracksPipeOccupancy(t *testing.T) {
	b := smallBackend()
	if b.Accept() != 8 {
		t.Fatalf("Accept = %d", b.Accept())
	}
	deliver(b, []pipe.Uop{mkUop(0, isa.ALU), mkUop(1, isa.ALU)}, 0)
	if b.Accept() != 6 {
		t.Fatalf("Accept after deliver = %d", b.Accept())
	}
	b.Tick(1) // decode latency 1: both move to ROB
	if b.Accept() != 8 {
		t.Fatalf("Accept after fill = %d", b.Accept())
	}
}

func TestWrongPathAtCommitHeadPanics(t *testing.T) {
	b := smallBackend()
	w := mkUop(0, isa.ALU)
	w.OnCorrectPath = false
	deliver(b, []pipe.Uop{w}, 0)
	defer func() {
		if recover() == nil {
			t.Error("wrong-path commit did not panic")
		}
	}()
	run(b, 1, 10)
}

func TestRegisterZeroNeverBlocks(t *testing.T) {
	b := smallBackend()
	u0 := mkUop(0, isa.Mul)
	u0.Instr.Dst = 0 // r0: write must be ignored
	u1 := mkUop(1, isa.ALU)
	u1.Instr.Src1 = 0
	deliver(b, []pipe.Uop{u0, u1}, 0)
	b.Tick(1)
	if b.Issued != 2 {
		t.Fatalf("Issued = %d; r0 dependence should not stall", b.Issued)
	}
}
