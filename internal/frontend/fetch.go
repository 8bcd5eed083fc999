package frontend

import (
	"fmt"

	"fdip/internal/cache"
	"fdip/internal/ftq"
	"fdip/internal/isa"
	"fdip/internal/memsys"
	"fdip/internal/oracle"
	"fdip/internal/pipe"
	"fdip/internal/program"
)

// NotifyFunc reports each demand L1-I access to the prefetcher: the line,
// whether it hit the cache, and whether it was served by the prefetch
// buffer.
type NotifyFunc func(line uint64, l1Hit, pfbHit bool, now int64)

// FetchEngine drains the FTQ head through the L1-I, producing tagged uops.
// Each delivered instruction is written exactly once, into a slot of the
// shared uop arena (owned by the backend, which sizes it to max in-flight);
// Tick hands the backend a contiguous (first, n) arena range instead of a
// buffer of uop values.
type FetchEngine struct {
	im     *program.Image
	walker *oracle.Walker
	q      *ftq.Queue
	ar     *pipe.Arena
	l1i    *cache.Cache
	pfb    *cache.PrefetchBuffer
	hier   *memsys.Hierarchy
	width  int
	notify NotifyFunc

	stalled    bool
	stallUntil int64
	perfect    bool

	diverged bool
	seq      uint64
	cur      oracle.Record

	// DemandAccesses counts L1-I demand lookups; L1Hits and PFBHits their
	// outcomes; FullMisses lookups that went to the L2 (LateMerges of
	// those caught an in-flight prefetch). Delivered counts uops handed to
	// the backend (WrongPath of them down a mispredicted path, OutOfImage
	// of those past the code image). StallCycles counts cycles blocked on
	// a demand miss, IdleNoFTQ cycles with an empty FTQ, BackendFull
	// cycles with no decode capacity.
	DemandAccesses, L1Hits, PFBHits, FullMisses, LateMerges uint64
	Delivered, WrongPath, OutOfImage                        uint64
	StallCycles, IdleNoFTQ, BackendFull                     uint64
}

// NewFetchEngine builds a fetch engine delivering up to width (at least 1)
// instructions per cycle into arena ar (the backend's, see backend.Arena).
// notify may be nil. A perfect engine hits on every demand access — the
// no-front-end-stall upper bound used by the evaluation.
func NewFetchEngine(im *program.Image, walker *oracle.Walker, q *ftq.Queue, ar *pipe.Arena, l1i *cache.Cache,
	pfb *cache.PrefetchBuffer, hier *memsys.Hierarchy, width int, notify NotifyFunc, perfect bool) *FetchEngine {
	f := &FetchEngine{
		im: im, walker: walker, q: q, ar: ar, l1i: l1i, pfb: pfb, hier: hier,
		width: width, notify: notify, perfect: perfect,
	}
	f.advance()
	return f
}

// advance pulls the next oracle record into f.cur in place.
func (f *FetchEngine) advance() {
	f.walker.NextInto(&f.cur)
}

// Reset restores the pristine just-constructed state over a (possibly
// different) program image and oracle walker: no stall, no divergence,
// sequence numbers and counters rewound, and the first oracle record pulled
// — exactly what NewFetchEngine leaves behind. The wired FTQ, caches, and
// hierarchy are reset by their own owners; width, perfect mode, and the
// prefetch notify hook are configuration, so they persist.
func (f *FetchEngine) Reset(im *program.Image, walker *oracle.Walker) {
	f.im = im
	f.walker = walker
	f.stalled = false
	f.stallUntil = 0
	f.diverged = false
	f.seq = 0
	f.DemandAccesses, f.L1Hits, f.PFBHits, f.FullMisses, f.LateMerges = 0, 0, 0, 0, 0
	f.Delivered, f.WrongPath, f.OutOfImage = 0, 0, 0
	f.StallCycles, f.IdleNoFTQ, f.BackendFull = 0, 0, 0
	f.advance()
}

// StallEvent reports whether fetch is blocked on an outstanding demand miss,
// and the cycle the stall lifts. The core's cycle-skip scheduler uses it:
// while stalled, Tick only counts stall cycles until that cycle arrives.
func (f *FetchEngine) StallEvent() (until int64, stalled bool) {
	return f.stallUntil, f.stalled
}

// Redirect clears misprediction state after a resolve: the wrong path ends,
// any demand-miss stall belongs to squashed work, and fetch resumes at the
// new FTQ content. (An in-flight wrong-path transfer still completes and
// fills the cache — realistic pollution.)
func (f *FetchEngine) Redirect() {
	f.diverged = false
	f.stalled = false
}

// Tick fetches from the FTQ head, writing each delivered instruction once
// into a freshly allocated arena slot, and returns the contiguous range
// (first, n) delivered this cycle — n is zero most cycles a miss is
// outstanding — never exceeding accept, the backend's remaining decode
// capacity. The arena's backpressure is exactly accept (pipe capacity) plus
// ROB occupancy, both bounded, so allocation never overflows and the hot
// path never copies a uop.
func (f *FetchEngine) Tick(now int64, accept int) (first uint32, n int) {
	if f.stalled {
		if now < f.stallUntil {
			f.StallCycles++
			return 0, 0
		}
		f.stalled = false
	}
	if accept <= 0 {
		f.BackendFull++
		return 0, 0
	}
	b := f.q.Head()
	if b == nil {
		f.IdleNoFTQ++
		return 0, 0
	}
	pc := b.NextFetchPC()
	line := f.l1i.LineAddr(pc)

	// Demand access: one tag port, one line per cycle.
	f.l1i.TryUsePort(now)
	f.DemandAccesses++
	switch {
	case f.perfect:
		f.L1Hits++
		if f.notify != nil {
			f.notify(line, true, false, now)
		}
	case f.l1i.Access(pc):
		f.L1Hits++
		if f.notify != nil {
			f.notify(line, true, false, now)
		}
	case f.pfb.Take(line):
		// Prefetch buffer hit: move the line into the L1-I and fetch
		// through in the same cycle.
		f.PFBHits++
		f.l1i.Fill(line, true)
		if f.notify != nil {
			f.notify(line, false, true, now)
		}
	default:
		tr := f.hier.Request(line, false, now)
		f.FullMisses++
		if tr.Prefetch {
			f.LateMerges++
		}
		f.stalled = true
		f.stallUntil = tr.Done
		if f.notify != nil {
			f.notify(line, false, false, now)
		}
		return 0, 0
	}

	// Deliver instructions from this line, bounded by fetch width, block
	// end, line end, and backend capacity. Each slot is written once (every
	// field is assigned, so the recycled slot needs no zeroing) and never
	// copied again.
	//
	// Block prologue: every delivery this call comes from the head block,
	// so the values that steer the per-instruction control flow — the
	// cursor, the terminator distance, the predicted-taken terminator
	// test — are computed from the block once, here. The block-invariant
	// pass-through fields (start, checkpoints) are copied
	// per slot straight from the block record instead of from hoisted
	// locals: b is one live register across the loop's calls where the
	// locals were five, and the spill/reload traffic around the oracle
	// advance measurably outweighed the re-loads they saved.
	blockLen := b.FetchedInstrs
	termLen := b.NumInstrs // the terminator is the block's last instruction
	takenTerm := b.EndsInCTI && b.PredTaken
	for n < f.width && n < accept && blockLen < termLen {
		if f.l1i.LineAddr(pc) != line {
			break
		}
		idx, u := f.ar.Alloc()
		if n == 0 {
			first = idx
		}
		u.Seq = f.seq
		u.PC = pc
		u.BlockStart = b.Start
		blockLen++
		u.BlockLen = blockLen
		u.HistCP = b.HistCP
		u.RASCP = b.RASCP
		isTerminator := blockLen == termLen
		if isTerminator && takenTerm {
			u.PredNextPC = b.PredTarget
		} else {
			u.PredNextPC = pc + isa.InstrBytes
		}
		if rec := &f.cur; !f.diverged && rec.PC == pc {
			// Correct path: the oracle already decoded this instruction,
			// and its record is read in place (advance overwrites it only
			// after the last use). This arm handles nearly every fetched
			// instruction, so it stays inline in the delivery loop — the
			// cold cases (wrong path, image end) share one out-of-line
			// call below.
			u.Instr = rec.Instr
			// Correct-path PCs are always in-image, and the image's code
			// word carries the packed scheduler word in its spare upper
			// half: the pack is a pure function of the static instruction,
			// computed once per image rather than once per dynamic instance.
			u.Sched = f.im.SchedWord(pc)
			u.OnCorrectPath = true
			u.ActualTaken = rec.Taken
			u.ActualNextPC = rec.NextPC
			u.Mispredicted = false
			u.MissKind = pipe.MissNone
			if u.PredNextPC != rec.NextPC {
				u.Mispredicted = true
				u.MissKind = classifyMiss(rec.Instr.Kind, isTerminator && b.EndsInCTI, b.PredTaken, rec.Taken)
				f.diverged = true
			}
			f.advance()
			f.seq++
		} else {
			f.tagSlow(pc, u)
		}
		n++
		pc += isa.InstrBytes
	}
	b.FetchedInstrs = blockLen
	if b.Done() {
		f.q.PopHead()
	}
	f.Delivered += uint64(n)
	return first, n
}

// tagSlow fills the per-instruction remainder of u on the cold paths the
// delivery loop's inline correct-path arm excludes: wrong-path fetch and
// fetch past the code image. Every remaining field is assigned, so the arena
// slot needs no prior zeroing. A correct-path PC the walker did not draw is
// a front-end bug and panics.
func (f *FetchEngine) tagSlow(pc uint64, u *pipe.Uop) {
	u.OnCorrectPath = false
	u.ActualTaken = false
	u.ActualNextPC = 0
	u.Mispredicted = false
	u.MissKind = pipe.MissNone
	if !f.im.InstrInto(pc, &u.Instr) {
		// Wrong-path fetch ran past the code image; hardware would fetch
		// garbage, we deliver phantom nops until the redirect arrives.
		u.Instr = isa.Instr{Kind: isa.Nop, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg}
		f.OutOfImage++
	}
	u.Sched = u.Instr.SchedPack()

	if !f.diverged {
		panic(fmt.Sprintf("frontend: correct-path fetch at %#x but oracle expects %#x", pc, f.cur.PC))
	}
	f.WrongPath++
	f.seq++
}

// classifyMiss names the misprediction cause.
func classifyMiss(kind isa.Kind, predicted, predTaken, actualTaken bool) pipe.MispredictKind {
	if !kind.IsCTI() {
		// A non-CTI can only diverge if the block prediction was broken;
		// treat it as an unseen-CTI-class front-end error.
		return pipe.MissUnseenCTI
	}
	if !predicted {
		return pipe.MissUnseenCTI
	}
	switch {
	case kind == isa.CondBranch && predTaken != actualTaken:
		return pipe.MissDirection
	case kind.IsReturn():
		return pipe.MissReturn
	default:
		return pipe.MissTarget
	}
}
