// Package program models static program images: synthetic code laid out in a
// flat address space, with enough structure (functions, basic blocks, loops,
// call graphs, branch biases) that executing them stresses an instruction
// cache and branch predictor the way real compiled programs do.
//
// The original paper evaluated SPEC95 and C++ programs compiled for a RISC
// machine. Those binaries and traces are unavailable here, so this package is
// the substitution: a generator whose knobs control exactly the properties
// instruction prefetching is sensitive to — code footprint, basic-block size
// distribution, branch mix and bias, loop trip counts, and call-graph
// temporal locality. See ARCHITECTURE.md for how the layers fit together.
package program

import (
	"fmt"
	"sync/atomic"

	"fdip/internal/isa"
)

// BranchModel tells the oracle walker how a static branch behaves
// dynamically.
type BranchModel uint8

const (
	// ModelNone marks non-branch instructions.
	ModelNone BranchModel = iota
	// ModelBiased branches are taken with probability TakenProb,
	// independently per dynamic instance.
	ModelBiased
	// ModelLoop branches are loop back-edges: taken Trip times in a row,
	// then not taken once, with Trip redrawn per loop entry.
	ModelLoop
	// ModelIndirect instructions pick a dynamic target from Targets with
	// the paired Weights.
	ModelIndirect
	// ModelPattern branches repeat a fixed taken/not-taken bit pattern —
	// perfectly history-correlated behaviour (loop-like guards, parity
	// tests) that global-history predictors learn and PC-only predictors
	// cannot.
	ModelPattern
)

// String returns a short name for the model.
func (m BranchModel) String() string {
	switch m {
	case ModelNone:
		return "none"
	case ModelBiased:
		return "biased"
	case ModelLoop:
		return "loop"
	case ModelIndirect:
		return "indirect"
	case ModelPattern:
		return "pattern"
	}
	return fmt.Sprintf("model(%d)", uint8(m))
}

// Behavior describes the dynamic behaviour of one static control-transfer
// instruction. It is consulted only by the oracle walker; the simulated
// hardware never sees it.
type Behavior struct {
	Model BranchModel
	// TakenProb is the per-instance taken probability for ModelBiased.
	TakenProb float64
	// MeanTrip is the mean loop trip count for ModelLoop.
	MeanTrip int
	// Targets is the dynamic target set for ModelIndirect.
	Targets []uint64
	// Weights are relative selection weights parallel to Targets. A nil
	// Weights means uniform.
	Weights []float64
	// Sticky is the probability that an indirect instance repeats its
	// previous dynamic target — the burstiness of real dispatch streams.
	Sticky float64
	// Pattern and PatternLen define the repeating outcome bit string for
	// ModelPattern (bit i = taken on the i-th instance mod PatternLen).
	Pattern    uint32
	PatternLen uint8
}

// Func records one generated function.
type Func struct {
	// Name is a stable synthetic identifier ("f0017").
	Name string
	// Entry is the address of the first instruction.
	Entry uint64
	// NumInstrs is the function length in instructions, including padding.
	NumInstrs int
}

// Image is a complete static program: a flat instruction array starting at
// Base, plus per-instruction behaviour metadata and a function directory.
type Image struct {
	// Base is the byte address of Code[0]. Always instruction aligned.
	Base uint64
	// Code holds the instructions in address order.
	Code []isa.Instr
	// Behav is parallel to Code. Entries for non-CTI instructions have
	// Model == ModelNone.
	Behav []Behavior
	// Funcs lists generated functions in address order.
	Funcs []Func
	// Entry is the program entry point (first function's entry).
	Entry uint64

	// static holds the read-only tables derived from Code and Behav on
	// first use (see SchedWords and WalkerSlots). Images are shared across
	// engine workers, so the tables are published atomically; Code and
	// Behav must not change after first use.
	static atomic.Pointer[staticTables]
}

// staticTables are per-image lookups that every simulation of the image
// would otherwise rebuild per point.
type staticTables struct {
	sched  []uint32
	slots  []uint32
	nSlots int
}

// tables returns the static tables, deriving them on first use. The fast
// path is one atomic load, small enough to inline: the fetch engine reads
// the scheduler table on every cycle it delivers instructions.
func (im *Image) tables() *staticTables {
	if t := im.static.Load(); t != nil {
		return t
	}
	return im.deriveTables()
}

// deriveTables builds and publishes the static tables. Concurrent first
// uses may each build them; the tables are a pure function of the image,
// so whichever publishes first is what every caller sees.
func (im *Image) deriveTables() *staticTables {
	t := &staticTables{
		sched: make([]uint32, len(im.Code)),
		slots: make([]uint32, len(im.Code)),
	}
	for i := range im.Code {
		ins := &im.Code[i]
		t.sched[i] = ins.SchedPack()
		if i < len(im.Behav) && hasWalkerState(ins.Kind, im.Behav[i].Model) {
			t.slots[i] = uint32(t.nSlots)
			t.nSlots++
		}
	}
	if !im.static.CompareAndSwap(nil, t) {
		return im.static.Load()
	}
	return t
}

// hasWalkerState reports whether the oracle walker keeps dynamic state for
// an instruction of this kind and behaviour: loop and pattern conditionals
// (trip count, pattern position) and indirect jumps and calls (previous
// target). Every other instruction is resolved statelessly.
func hasWalkerState(kind isa.Kind, model BranchModel) bool {
	switch kind {
	case isa.CondBranch:
		return model == ModelLoop || model == ModelPattern
	case isa.IndirectJump, isa.IndirectCall:
		return true
	}
	return false
}

// SchedWords returns each instruction's packed scheduler word
// (isa.Instr.SchedPack), indexed by word index. The table is derived once
// per image and shared; callers must not modify it.
func (im *Image) SchedWords() []uint32 { return im.tables().sched }

// WalkerSlots returns the dense ordinal of each stateful instruction (see
// hasWalkerState), indexed by word index, and the number of such
// instructions. Entries for stateless instructions are meaningless. The
// table is derived once per image and shared; callers must not modify it.
func (im *Image) WalkerSlots() (slots []uint32, n int) {
	t := im.tables()
	return t.slots, t.nSlots
}

// Size returns the code footprint in bytes.
func (im *Image) Size() uint64 { return uint64(len(im.Code)) * isa.InstrBytes }

// End returns the first byte address past the image.
func (im *Image) End() uint64 { return im.Base + im.Size() }

// Contains reports whether addr falls inside the image.
func (im *Image) Contains(addr uint64) bool {
	return addr >= im.Base && addr < im.End()
}

// InstrAt returns the instruction at the given byte address. ok is false if
// the address is unaligned or outside the image — wrong-path fetch can run
// off the end of the code, and callers must handle that.
func (im *Image) InstrAt(addr uint64) (ins isa.Instr, ok bool) {
	if addr%isa.InstrBytes != 0 || !im.Contains(addr) {
		return isa.Instr{}, false
	}
	return im.Code[isa.WordIndex(addr, im.Base)], true
}

// BehaviorAt returns the behaviour record for the instruction at addr.
// It returns a zero Behavior for addresses outside the image.
func (im *Image) BehaviorAt(addr uint64) Behavior {
	if addr%isa.InstrBytes != 0 || !im.Contains(addr) {
		return Behavior{}
	}
	return im.Behav[isa.WordIndex(addr, im.Base)]
}

// index returns the word index for addr; callers must ensure it is valid.
func (im *Image) index(addr uint64) int { return isa.WordIndex(addr, im.Base) }

// Validate checks structural invariants of the image. It is used by tests
// and by the generator's own self-check:
//
//   - Code and Behav have equal length and the image is non-empty.
//   - Entry and all function entries are in bounds and aligned.
//   - Every direct CTI target is in bounds and aligned.
//   - Every CTI has a behaviour model; no non-CTI does.
//   - ModelIndirect target sets are non-empty, in bounds, and weight
//     vectors (when present) match in length with non-negative entries.
//   - ModelLoop back-edges have positive mean trip counts.
func (im *Image) Validate() error {
	if len(im.Code) == 0 {
		return fmt.Errorf("program: empty image")
	}
	if len(im.Code) != len(im.Behav) {
		return fmt.Errorf("program: code/behaviour length mismatch: %d vs %d", len(im.Code), len(im.Behav))
	}
	if im.Base%isa.InstrBytes != 0 {
		return fmt.Errorf("program: unaligned base %#x", im.Base)
	}
	if _, ok := im.InstrAt(im.Entry); !ok {
		return fmt.Errorf("program: entry %#x outside image", im.Entry)
	}
	for _, f := range im.Funcs {
		if _, ok := im.InstrAt(f.Entry); !ok {
			return fmt.Errorf("program: function %s entry %#x outside image", f.Name, f.Entry)
		}
	}
	for i, ins := range im.Code {
		pc := im.Base + uint64(i)*isa.InstrBytes
		b := im.Behav[i]
		if !ins.IsCTI() {
			if b.Model != ModelNone {
				return fmt.Errorf("program: non-CTI at %#x has behaviour %v", pc, b.Model)
			}
			continue
		}
		if ins.Kind.IsIndirect() {
			if ins.Kind == isa.Ret {
				continue // returns take their target from the call stack
			}
			if b.Model != ModelIndirect || len(b.Targets) == 0 {
				return fmt.Errorf("program: indirect CTI at %#x lacks target set", pc)
			}
			if b.Weights != nil && len(b.Weights) != len(b.Targets) {
				return fmt.Errorf("program: indirect CTI at %#x weight/target mismatch", pc)
			}
			for j, t := range b.Targets {
				if _, ok := im.InstrAt(t); !ok {
					return fmt.Errorf("program: indirect CTI at %#x target %#x outside image", pc, t)
				}
				if b.Weights != nil && b.Weights[j] < 0 {
					return fmt.Errorf("program: indirect CTI at %#x negative weight", pc)
				}
			}
			continue
		}
		if _, ok := im.InstrAt(ins.Target); !ok {
			return fmt.Errorf("program: CTI at %#x target %#x outside image", pc, ins.Target)
		}
		switch ins.Kind {
		case isa.CondBranch:
			switch b.Model {
			case ModelBiased:
				if b.TakenProb < 0 || b.TakenProb > 1 {
					return fmt.Errorf("program: branch at %#x bad taken prob %v", pc, b.TakenProb)
				}
			case ModelLoop:
				if b.MeanTrip <= 0 {
					return fmt.Errorf("program: loop branch at %#x bad mean trip %d", pc, b.MeanTrip)
				}
			case ModelPattern:
				if b.PatternLen < 2 || b.PatternLen > 32 {
					return fmt.Errorf("program: pattern branch at %#x bad length %d", pc, b.PatternLen)
				}
			default:
				return fmt.Errorf("program: conditional at %#x has model %v", pc, b.Model)
			}
		}
	}
	return nil
}

// KindCounts tallies static instructions by kind.
func (im *Image) KindCounts() [isa.NumKinds]int {
	var c [isa.NumKinds]int
	for _, ins := range im.Code {
		c[ins.Kind]++
	}
	return c
}

// StaticBranchCount returns the number of static CTIs in the image.
func (im *Image) StaticBranchCount() int {
	n := 0
	for _, ins := range im.Code {
		if ins.IsCTI() {
			n++
		}
	}
	return n
}

// FuncOf returns the function containing addr, or nil.
func (im *Image) FuncOf(addr uint64) *Func {
	lo, hi := 0, len(im.Funcs)
	for lo < hi {
		mid := (lo + hi) / 2
		f := &im.Funcs[mid]
		end := f.Entry + uint64(f.NumInstrs)*isa.InstrBytes
		switch {
		case addr < f.Entry:
			hi = mid
		case addr >= end:
			lo = mid + 1
		default:
			return f
		}
	}
	return nil
}
