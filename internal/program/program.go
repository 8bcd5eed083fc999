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
	// ModelNone is BehaviorAt's model for an unmodelled instruction.
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

// Branch is one record of an image's behaviour table: the behaviour of the
// modelled instruction at word index Word.
type Branch struct {
	Word int
	Behavior
}

// Image is a complete static program: a flat instruction array starting at
// Base, plus a sparse behaviour table and a function directory.
type Image struct {
	// Base is the byte address of Code[0]. Always instruction aligned.
	Base uint64
	// Code holds the instructions in address order.
	Code []isa.Instr
	// Behav holds, in address order, one record per modelled instruction:
	// each conditional branch and each indirect jump and call.
	Behav []Branch
	// Funcs lists generated functions in address order.
	Funcs []Func
	// Entry is the program entry point (first function's entry).
	Entry uint64

	// static holds the read-only tables derived from Code and Behav on
	// first use (see SchedWords and BehaviorIndex). Images are shared
	// across engine workers, so the tables are published atomically; Code
	// and Behav must not change after first use.
	static atomic.Pointer[staticTables]
}

// NoBehavior marks an unmodelled word in BehaviorIndex's ordinal table.
const NoBehavior = ^uint32(0)

// staticTables are per-image lookups that every simulation of the image
// would otherwise rebuild per point.
type staticTables struct {
	sched  []uint32
	ord    []uint32
	slot   []uint32
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
		ord:   make([]uint32, len(im.Code)),
		slot:  make([]uint32, len(im.Behav)),
	}
	for i := range im.Code {
		t.sched[i] = im.Code[i].SchedPack()
		t.ord[i] = NoBehavior
	}
	for r := range im.Behav {
		b := &im.Behav[r]
		t.ord[b.Word] = uint32(r)
		// Every model but ModelBiased keeps walker state: a loop's trip
		// count, a pattern's position, an indirect's previous target.
		if b.Model != ModelBiased {
			t.slot[r] = uint32(t.nSlots)
			t.nSlots++
		}
	}
	if !im.static.CompareAndSwap(nil, t) {
		return im.static.Load()
	}
	return t
}

// SchedWords returns each instruction's packed scheduler word
// (isa.Instr.SchedPack), indexed by word index. The table is derived once
// per image and shared; callers must not modify it.
func (im *Image) SchedWords() []uint32 { return im.tables().sched }

// BehaviorIndex returns the lookups into Behav: ord maps each word index to
// its record's position in Behav, or NoBehavior; slot maps each record to a
// dense ordinal over the n records that keep oracle-walker state (every
// model but ModelBiased). The tables are derived once per image and shared;
// callers must not modify them.
func (im *Image) BehaviorIndex() (ord, slot []uint32, n int) {
	t := im.tables()
	return t.ord, t.slot, t.nSlots
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

// BehaviorAt returns the behaviour of the instruction at addr. It returns a
// zero Behavior for unmodelled instructions and addresses outside the image.
func (im *Image) BehaviorAt(addr uint64) Behavior {
	if _, ok := im.InstrAt(addr); ok {
		if r := im.tables().ord[isa.WordIndex(addr, im.Base)]; r != NoBehavior {
			return im.Behav[r].Behavior
		}
	}
	return Behavior{}
}

// Validate checks structural invariants of the image. It is used by tests
// and by the generator's own self-check:
//
//   - The image is non-empty.
//   - Entry and all function entries are in bounds and aligned.
//   - Every direct CTI target is in bounds and aligned.
//   - Behav is in strictly ascending word order, within the image, and has
//     a record exactly for each conditional and indirect jump and call.
//   - Conditionals are ModelBiased, ModelLoop or ModelPattern with sane
//     parameters; ModelLoop back-edges have positive mean trip counts.
//   - Indirect jumps and calls are ModelIndirect with a non-empty, in-bounds
//     target set and, when present, a matching non-negative weight vector.
func (im *Image) Validate() error {
	if len(im.Code) == 0 {
		return fmt.Errorf("program: empty image")
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
	next := 0 // the merge walk's position in Behav
	for i, ins := range im.Code {
		pc := im.Base + uint64(i)*isa.InstrBytes
		var b *Behavior
		if next < len(im.Behav) && im.Behav[next].Word <= i {
			if im.Behav[next].Word < i {
				return fmt.Errorf("program: behaviour record %d (word %d) out of order or outside the image", next, im.Behav[next].Word)
			}
			b = &im.Behav[next].Behavior
			next++
		}
		if want := ins.Kind == isa.CondBranch || ins.Kind == isa.IndirectJump || ins.Kind == isa.IndirectCall; want != (b != nil) {
			return fmt.Errorf("program: %v at %#x has a behaviour record: %t, want %t", ins.Kind, pc, b != nil, want)
		}
		if !ins.IsCTI() {
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
	if next < len(im.Behav) {
		return fmt.Errorf("program: behaviour record %d (word %d) out of order or outside the image", next, im.Behav[next].Word)
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
