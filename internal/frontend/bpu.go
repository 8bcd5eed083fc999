// Package frontend implements the decoupled front end: the branch-prediction
// unit (BPU) that runs ahead filling the fetch target queue, and the fetch
// engine that drains it through the L1-I, producing the uop stream the
// backend consumes.
//
// The front end genuinely walks the predicted path over the static program
// image — including down wrong paths after a misprediction — so wrong-path
// cache pollution and wrong-path prefetches behave as they would in
// hardware. Correctness is checked against the oracle stream at fetch time
// and enforced at branch resolution.
package frontend

import (
	"math"

	"fdip/internal/bpred"
	"fdip/internal/btb"
	"fdip/internal/ftq"
	"fdip/internal/isa"
)

// BPU is the branch-prediction unit: one fetch-block prediction per cycle
// into the FTQ.
type BPU struct {
	ftb  *btb.TargetBuffer
	dir  bpred.Predictor
	ras  *bpred.RAS
	q    *ftq.Queue
	pc   uint64
	seq  uint64
	next int64 // earliest cycle the BPU may predict (redirect latency)

	maxBlock int

	// Blocks counts predictions pushed; FTBMisses counts maximal
	// sequential blocks pushed on FTB misses; FullStalls counts cycles
	// lost to a full FTQ; RASUnderflows counts return predictions that
	// fell back to the FTB target.
	Blocks, FTBMisses, FullStalls, RASUnderflows uint64
}

// NewBPU wires the branch-prediction unit. maxBlock, at least 1, bounds
// sequential blocks predicted on FTB misses (the FTB's own length field
// bounds hits).
func NewBPU(ftb *btb.TargetBuffer, dir bpred.Predictor, ras *bpred.RAS, q *ftq.Queue, entryPC uint64, maxBlock int) *BPU {
	return &BPU{ftb: ftb, dir: dir, ras: ras, q: q, pc: entryPC, maxBlock: maxBlock}
}

// NextWork returns the earliest cycle, at or after now, at which Tick could
// change machine state: the redirect resume cycle while the BPU is quiesced
// (before it, Tick is a pure no-op), now while the FTQ has room, and
// math.MaxInt64 while the FTQ is full — a full queue only drains through
// fetch progress or a redirect, both external events the scheduler already
// tracks. (Ticks against a full queue still count full-queue stalls; the
// scheduler batches those, like every other pure per-cycle counter.)
func (b *BPU) NextWork(now int64) int64 {
	if now < b.next {
		return b.next
	}
	if b.q.Full() {
		return math.MaxInt64
	}
	return now
}

// Redirect points the BPU at pc; prediction resumes at cycle resume.
func (b *BPU) Redirect(pc uint64, resume int64) {
	b.pc = pc
	b.next = resume
}

// Reset restores the pristine just-constructed state over a (possibly new)
// program entry point: prediction restarts at entryPC on cycle 0 with the
// block sequence and counters rewound. The wired FTB, predictor, RAS, and
// FTQ are reset by their own owners.
func (b *BPU) Reset(entryPC uint64) {
	b.pc = entryPC
	b.seq = 0
	b.next = 0
	b.Blocks, b.FTBMisses, b.FullStalls, b.RASUnderflows = 0, 0, 0, 0
}

// Tick makes one fetch-block prediction into the FTQ. The block is built
// in place in the queue slot (PushSlot/CommitPush), so the per-cycle hot
// path never copies a Block.
func (b *BPU) Tick(now int64) {
	if now < b.next {
		return
	}
	if b.q.Full() {
		b.FullStalls++
		return
	}
	histCP := b.dir.History()
	rasCP := b.ras.Checkpoint()

	pred, hit := b.ftb.PredictBlock(b.pc)
	blk := b.q.PushSlot() // non-nil: fullness checked above
	blk.Seq = b.seq
	blk.Start = b.pc
	blk.HistCP = histCP
	blk.RASCP = rasCP
	b.seq++

	if !hit {
		// Unknown region: predict a maximal sequential block and keep
		// going; a hidden taken CTI will surface as a misprediction.
		blk.NumInstrs = b.maxBlock
		b.FTBMisses++
		b.q.CommitPush()
		b.Blocks++
		b.pc = blk.End()
		return
	}

	blk.NumInstrs = pred.NumInstrs
	blk.EndsInCTI = true
	blk.CTIKind = pred.CTI
	branchPC := blk.Start + uint64(pred.NumInstrs-1)*isa.InstrBytes

	switch {
	case pred.CTI == isa.CondBranch:
		blk.PredTaken = b.dir.Predict(branchPC)
		blk.PredTarget = pred.Target
	case pred.CTI.IsReturn():
		blk.PredTaken = true
		if t, ok := b.ras.Pop(); ok {
			blk.PredTarget = t
		} else {
			b.RASUnderflows++
			blk.PredTarget = pred.Target
		}
	default: // jumps and calls, direct or indirect
		blk.PredTaken = true
		blk.PredTarget = pred.Target
		if pred.CTI.IsCall() {
			b.ras.Push(branchPC + isa.InstrBytes)
		}
	}

	b.q.CommitPush()
	b.Blocks++
	if blk.PredTaken {
		b.pc = blk.PredTarget
	} else {
		b.pc = blk.End()
	}
}

// RepairAfterMispredict restores predictor history and the RAS to the state
// checkpointed with the mispredicted instruction, then re-applies the
// instruction's own architectural effect.
func (b *BPU) RepairAfterMispredict(kind isa.Kind, histCP uint64, rasCP bpred.RASCheckpoint, pc uint64, actualTaken bool) {
	if kind == isa.CondBranch {
		b.dir.Repair(histCP, actualTaken)
	} else {
		b.dir.Restore(histCP)
	}
	b.ras.Restore(rasCP)
	switch {
	case kind.IsCall():
		b.ras.Push(pc + isa.InstrBytes)
	case kind.IsReturn():
		b.ras.Pop()
	}
}
