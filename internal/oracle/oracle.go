// Package oracle executes a program image architecturally, producing the
// correct-path dynamic instruction stream that the simulated processor must
// fetch, predict, and commit.
//
// The walker is the ground truth: the front end runs on *predictions* and is
// checked against the walker's records at branch resolution. The walker never
// models timing — only the sequence of executed instructions, branch
// outcomes, and targets.
package oracle

import (
	"fmt"
	"math/rand"

	"fdip/internal/isa"
	"fdip/internal/program"
)

// Record describes one dynamically executed instruction on the correct path.
type Record struct {
	// PC is the instruction's address.
	PC uint64
	// Instr is the static instruction at PC.
	Instr isa.Instr
	// Taken reports whether a CTI transferred control (always true for
	// unconditional CTIs, meaningless for non-CTIs).
	Taken bool
	// NextPC is the address of the next correct-path instruction.
	NextPC uint64
}

// maxStack bounds the walker's call stack; generation guarantees an acyclic
// call graph, so this is a defensive limit, not a semantic one.
const maxStack = 4096

// Walker executes a program image forever. When the entry function returns
// with an empty call stack, the walker restarts at the entry point — the
// workload's outermost request loop.
type Walker struct {
	im  *program.Image
	rng *rand.Rand
	pc  uint64

	stack []uint64
	// state holds one record per stateful branch (loop and pattern
	// conditionals, indirect jumps and calls), at the slot the image's
	// Record gives it. Only a few percent of instructions carry state, so a
	// reset costs O(stateful branches), not O(image).
	state []branchState

	// Executed counts records produced.
	Executed uint64
}

// branchState is one stateful branch's dynamic state. Its zero value is a
// branch never executed, so a reset is a clear.
type branchState struct {
	// lastTarget is an indirect CTI's previous dynamic target, for sticky
	// (bursty) dispatch; hasLast distinguishes "never executed" (targets
	// may legitimately be any value).
	lastTarget uint64
	// loopLeft is a ModelLoop branch's remaining taken iterations plus one;
	// zero means the branch is outside its loop (no trip count drawn).
	loopLeft int32
	hasLast  bool
	// patPos is a ModelPattern branch's position in its pattern.
	patPos uint8
}

// NewWalker creates a walker over im, seeded deterministically.
func NewWalker(im *program.Image, seed int64) *Walker {
	w := &Walker{stack: make([]uint64, 0, 64)}
	w.Reset(im, seed)
	return w
}

// Reset makes w observationally NewWalker(im, seed) — entry point, empty
// stack, every branch's state cleared and the RNG reseeded in place — while
// keeping its storage, so a pooled walker recycles without allocating once
// its state table has grown to the image's stateful-branch count.
func (w *Walker) Reset(im *program.Image, seed int64) {
	w.im = im
	if w.rng == nil {
		w.rng = rand.New(rand.NewSource(seed))
	} else {
		w.rng.Seed(seed)
	}
	w.pc = im.Entry
	w.stack = w.stack[:0]
	n := im.StatefulBranches()
	if cap(w.state) < n {
		w.state = make([]branchState, n)
	} else {
		w.state = w.state[:n]
		clear(w.state)
	}
	w.Executed = 0
}

// NextInto executes one instruction, filling rec in place — the fetch
// engine's per-instruction hot path copies nothing. The walker never runs
// out: the program's outermost return restarts it at the entry point.
func (w *Walker) NextInto(rec *Record) {
	if !w.im.InstrInto(w.pc, &rec.Instr) {
		// program.New makes this unreachable; crash loudly rather than
		// emit garbage.
		panic(fmt.Sprintf("oracle: correct path left the image at %#x", w.pc))
	}
	rec.PC = w.pc
	ins := &rec.Instr
	rec.Taken = false
	rec.NextPC = isa.NextPC(w.pc)

	switch ins.Kind {
	case isa.CondBranch:
		rec.Taken = w.condOutcome(w.pc)
		if rec.Taken {
			rec.NextPC = ins.Target
		}
	case isa.Jump:
		rec.Taken = true
		rec.NextPC = ins.Target
	case isa.Call:
		rec.Taken = true
		rec.NextPC = ins.Target
		w.push(isa.NextPC(w.pc))
	case isa.IndirectCall:
		rec.Taken = true
		rec.NextPC = w.indirectTarget(w.pc)
		w.push(isa.NextPC(w.pc))
	case isa.IndirectJump:
		rec.Taken = true
		rec.NextPC = w.indirectTarget(w.pc)
	case isa.Ret:
		rec.Taken = true
		if len(w.stack) == 0 {
			rec.NextPC = w.im.Entry // restart the outer request loop
		} else {
			rec.NextPC = w.stack[len(w.stack)-1]
			w.stack = w.stack[:len(w.stack)-1]
		}
	}

	w.pc = rec.NextPC
	w.Executed++
}

func (w *Walker) push(ret uint64) {
	if len(w.stack) >= maxStack {
		panic("oracle: call stack overflow; call graph is not acyclic")
	}
	w.stack = append(w.stack, ret)
}

// condOutcome resolves a conditional branch per its behaviour model.
func (w *Walker) condOutcome(pc uint64) bool {
	// The record is read in place: copying its two slice headers out cost
	// a duffcopy per branch.
	b, slot := w.im.Record(pc)
	switch b.Model {
	case program.ModelLoop:
		st := &w.state[slot]
		left := st.loopLeft - 1
		if left < 0 {
			// Entering the loop: draw a fresh trip count. Zero trips
			// means the back-edge falls through immediately.
			left = int32(w.drawTrip(b.MeanTrip))
		}
		if left > 0 {
			st.loopLeft = left // left-1 iterations remain, stored plus one
			return true
		}
		st.loopLeft = 0
		return false
	case program.ModelBiased:
		return w.rng.Float64() < b.TakenProb
	case program.ModelPattern:
		st := &w.state[slot]
		pos := st.patPos
		taken := b.Pattern>>pos&1 == 1
		pos++
		if pos >= b.PatternLen {
			pos = 0
		}
		st.patPos = pos
		return taken
	default:
		// program.New makes this unreachable; drawing an outcome here
		// would silently perturb the RNG stream.
		panic(fmt.Sprintf("oracle: conditional at %#x has behaviour %v", pc, b.Model))
	}
}

// drawTrip samples a loop trip count around mean, capped for termination.
func (w *Walker) drawTrip(mean int) int {
	if mean <= 0 {
		return 0
	}
	// Geometric around the mean, capped at 4x.
	p := 1.0 / float64(mean)
	n := 0
	for w.rng.Float64() > p && n < mean*4 {
		n++
	}
	return n
}

// indirectTarget picks a dynamic target from the instruction's target set,
// repeating the previous target with probability Sticky (bursty dispatch).
func (w *Walker) indirectTarget(pc uint64) uint64 {
	b, slot := w.im.Record(pc)
	st := &w.state[slot]
	if st.hasLast && b.Sticky > 0 && w.rng.Float64() < b.Sticky {
		return st.lastTarget
	}
	t := w.drawTarget(&b.Behavior)
	st.lastTarget = t
	st.hasLast = true
	return t
}

// drawTarget samples from the (possibly weighted) target set.
func (w *Walker) drawTarget(b *program.Behavior) uint64 {
	if b.Weights == nil {
		return b.Targets[w.rng.Intn(len(b.Targets))]
	}
	total := 0.0
	for _, wt := range b.Weights {
		total += wt
	}
	r := w.rng.Float64() * total
	for i, wt := range b.Weights {
		r -= wt
		if r <= 0 {
			return b.Targets[i]
		}
	}
	return b.Targets[len(b.Targets)-1]
}
