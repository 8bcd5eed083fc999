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

// Stream produces correct-path records. Implementations include the live
// Walker and the trace reader in internal/trace.
type Stream interface {
	// NextInto fills rec with the next record in place — the fetch
	// engine's per-instruction hot path copies nothing. It returns false
	// when the stream is exhausted (live walkers never exhaust).
	NextInto(rec *Record) bool
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
	// The per-branch dynamic state below is dense, indexed by word index —
	// one entry per static instruction. Maps keyed by word index measured
	// as a hash probe per executed branch on the walker's hot path; the
	// image is small enough that flat arrays are cheaper in time and not
	// meaningfully worse in space.
	//
	// loopLeft tracks remaining taken-iterations per ModelLoop branch;
	// -1 means the branch is outside its loop (no trip count drawn).
	loopLeft []int32
	// lastTarget remembers each indirect CTI's previous dynamic target for
	// sticky (bursty) dispatch; hasLast distinguishes "never executed"
	// (target addresses may legitimately be any value).
	lastTarget []uint64
	hasLast    []bool
	// patPos tracks each ModelPattern branch's position in its pattern.
	patPos []uint8

	// Executed counts records produced.
	Executed uint64
}

// NewWalker creates a walker over im, seeded deterministically.
func NewWalker(im *program.Image, seed int64) *Walker {
	w := &Walker{
		im:         im,
		rng:        rand.New(rand.NewSource(seed)),
		pc:         im.Entry,
		stack:      make([]uint64, 0, 64),
		loopLeft:   make([]int32, len(im.Code)),
		lastTarget: make([]uint64, len(im.Code)),
		hasLast:    make([]bool, len(im.Code)),
		patPos:     make([]uint8, len(im.Code)),
	}
	for i := range w.loopLeft {
		w.loopLeft[i] = -1
	}
	return w
}

// PC returns the address of the next instruction the walker will execute.
func (w *Walker) PC() uint64 { return w.pc }

// Next executes one instruction and returns its record. A live walker always
// returns ok == true.
func (w *Walker) Next() (Record, bool) {
	var rec Record
	w.NextInto(&rec)
	return rec, true
}

// NextInto executes one instruction, filling rec in place (the Stream
// method). It always returns true (live walkers never exhaust).
func (w *Walker) NextInto(rec *Record) bool {
	ins, ok := w.im.InstrAt(w.pc)
	if !ok {
		// The generator and Validate make this unreachable; crash loudly
		// rather than emit garbage.
		panic(fmt.Sprintf("oracle: correct path left the image at %#x", w.pc))
	}
	rec.PC = w.pc
	rec.Instr = ins
	rec.Taken = false
	rec.NextPC = isa.NextPC(w.pc)

	switch ins.Kind {
	case isa.CondBranch:
		rec.Taken = w.condOutcome(w.pc, ins)
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
	return true
}

func (w *Walker) push(ret uint64) {
	if len(w.stack) >= maxStack {
		panic("oracle: call stack overflow; call graph is not acyclic")
	}
	w.stack = append(w.stack, ret)
}

// condOutcome resolves a conditional branch per its behaviour model. The
// branch is inside the image (NextInto already decoded it), so its behaviour
// record is read in place — Behavior carries two slice headers, and copying
// it out was a duffcopy per executed conditional.
func (w *Walker) condOutcome(pc uint64, ins isa.Instr) bool {
	idx := isa.WordIndex(pc, w.im.Base)
	b := &w.im.Behav[idx]
	switch b.Model {
	case program.ModelLoop:
		left := w.loopLeft[idx]
		if left < 0 {
			// Entering the loop: draw a fresh trip count. Zero trips
			// means the back-edge falls through immediately.
			left = int32(w.drawTrip(b.MeanTrip))
		}
		if left > 0 {
			w.loopLeft[idx] = left - 1
			return true
		}
		w.loopLeft[idx] = -1
		return false
	case program.ModelBiased:
		return w.rng.Float64() < b.TakenProb
	case program.ModelPattern:
		pos := w.patPos[idx]
		taken := b.Pattern>>pos&1 == 1
		pos++
		if pos >= b.PatternLen {
			pos = 0
		}
		w.patPos[idx] = pos
		return taken
	default:
		// Defensive: treat unknown conditionals as weakly not taken.
		return w.rng.Float64() < 0.35
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
	idx := isa.WordIndex(pc, w.im.Base)
	b := &w.im.Behav[idx]
	if len(b.Targets) == 0 {
		panic(fmt.Sprintf("oracle: indirect CTI at %#x has no targets", pc))
	}
	if w.hasLast[idx] && b.Sticky > 0 && w.rng.Float64() < b.Sticky {
		return w.lastTarget[idx]
	}
	t := w.drawTarget(b)
	w.lastTarget[idx] = t
	w.hasLast[idx] = true
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

// Reset rewinds the walker to the entry point with fresh dynamic state but
// the same RNG stream position (use a new Walker for full determinism).
func (w *Walker) Reset() {
	w.pc = w.im.Entry
	w.stack = w.stack[:0]
	for i := range w.loopLeft {
		w.loopLeft[i] = -1
	}
	clear(w.lastTarget)
	clear(w.hasLast)
	clear(w.patPos)
	w.Executed = 0
}
