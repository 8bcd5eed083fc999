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
// temporal locality.
//
// An Image is built once, by New (which Generate calls), and never changes,
// so every machine and worker simulating it shares one copy. It is compact:
// one 8-byte word per static instruction (kind, registers, and a direct
// target as a 32-bit word index from Base, the way FDIP-X's BTB stores
// short offsets instead of full addresses; other kinds keep their packed
// scheduler word there), a sparse behaviour table for the modelled
// branches, and a rank index of 16 bytes per 64 words that finds a word's
// record in O(1) — about 15 B per static instruction in all. InstrAt decodes
// a word to the full isa.Instr. See ARCHITECTURE.md for how the layers fit
// together.
package program

import (
	"fmt"
	"math"
	"math/bits"

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
// hardware never sees it. The byte-sized fields lead so that they share one
// word with Pattern: a Behavior is 80 bytes.
type Behavior struct {
	Model BranchModel
	// Pattern and PatternLen define the repeating outcome bit string for
	// ModelPattern (bit i = taken on the i-th instance mod PatternLen).
	PatternLen uint8
	Pattern    uint32
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
// modelled instruction at word index Word. New assigns slot.
type Branch struct {
	Word int32
	// slot is the record's oracle-walker state slot (see Record).
	slot uint32
	Behavior
}

// Image is a complete static program: one encoded word per instruction from
// Base, a sparse behaviour table with its rank index, and a function
// directory. New builds and validates an image, and nothing changes it
// afterwards, so every machine and worker simulating it shares one copy.
type Image struct {
	// Base is the byte address of the first instruction. Always instruction
	// aligned.
	Base uint64
	// Funcs lists generated functions in address order.
	Funcs []Func
	// Entry is the program entry point (first function's entry).
	Entry uint64

	// code holds one word per instruction, in address order: the kind in
	// bits 0-7, Dst, Src1 and Src2 in bits 8-31, and in bits 32-63 a
	// direct CTI's target as a word index from Base, or any other kind's
	// packed scheduler word (isa.Instr.SchedPack).
	code []uint64
	// behav holds, in address order, one record per modelled instruction:
	// each conditional branch and each indirect jump and call.
	behav []Branch
	// rank indexes behav by word: one block per 64 words.
	rank []rankBlock
	// nSlots counts the records that keep oracle-walker state.
	nSlots int
}

// rankBlock covers 64 words of an image: bit i of mask is set when word
// 64k+i has a behaviour record, and base counts the records before the
// block. A word's record is behav[base + popcount(mask below the word)].
type rankBlock struct {
	mask uint64
	base uint32
}

// New builds an image of code laid out from base, with the behaviour
// records behav (one per conditional branch and indirect jump and call, in
// ascending word order), the function directory funcs and the entry point,
// and validates it:
//
//   - The image is non-empty, aligned and addressable by non-negative
//     32-bit word indices.
//   - Entry and all function entries are in bounds and aligned.
//   - Every instruction has a known kind, and every direct CTI target is in
//     bounds and aligned; other kinds carry no target.
//   - behav is in strictly ascending word order, within the image, and has
//     a record exactly for each conditional and indirect jump and call.
//   - Conditionals are ModelBiased, ModelLoop or ModelPattern with sane
//     parameters; ModelLoop back-edges have positive mean trip counts.
//   - Indirect jumps and calls are ModelIndirect with a non-empty, in-bounds
//     target set and, when present, a matching non-negative weight vector.
//
// New encodes code into the image and keeps behav, numbering the records
// that keep oracle-walker state (every model but ModelBiased) densely in
// address order, and funcs: the caller must not modify either afterwards.
func New(base, entry uint64, code []isa.Instr, behav []Branch, funcs []Func) (*Image, error) {
	if len(code) == 0 {
		return nil, fmt.Errorf("program: empty image")
	}
	if base%isa.InstrBytes != 0 {
		return nil, fmt.Errorf("program: unaligned base %#x", base)
	}
	if n := uint64(len(code)); n > math.MaxInt32 || base > math.MaxUint64-n*isa.InstrBytes {
		return nil, fmt.Errorf("program: %d instructions from %#x exceed the image's address range", n, base)
	}
	im := &Image{Base: base, Funcs: funcs, Entry: entry, code: make([]uint64, len(code)), behav: behav}
	if err := im.check(code); err != nil {
		return nil, err
	}
	for i, ins := range code {
		w := uint64(ins.Kind) | uint64(ins.Dst)<<8 | uint64(ins.Src1)<<16 | uint64(ins.Src2)<<24
		if hasTarget(ins.Kind) {
			w |= uint64(isa.WordIndex(ins.Target, base)) << 32
		} else {
			w |= uint64(ins.SchedPack()) << 32
		}
		im.code[i] = w
	}
	im.rank = make([]rankBlock, (len(code)+63)/64)
	for r := range behav {
		b := &behav[r]
		im.rank[b.Word/64].mask |= 1 << (b.Word % 64)
		// Every model but ModelBiased keeps walker state: a loop's trip
		// count, a pattern's position, an indirect's previous target.
		b.slot = 0
		if b.Model != ModelBiased {
			b.slot = uint32(im.nSlots)
			im.nSlots++
		}
	}
	var records uint32
	for k := range im.rank {
		im.rank[k].base = records
		records += uint32(bits.OnesCount64(im.rank[k].mask))
	}
	return im, nil
}

// targetKinds has bit k set for each kind k that carries a static target:
// the direct CTIs.
const targetKinds = 1<<isa.CondBranch | 1<<isa.Jump | 1<<isa.Call

// hasTarget reports whether an instruction of kind k carries a static
// target.
func hasTarget(k isa.Kind) bool { return targetKinds>>k&1 != 0 }

// check validates code and the image's other parts (see New). im.code must
// already have its length, which bounds the image, so InstrAt's ok says
// whether an address is an aligned in-image one.
func (im *Image) check(code []isa.Instr) error {
	if _, ok := im.InstrAt(im.Entry); !ok {
		return fmt.Errorf("program: entry %#x outside image", im.Entry)
	}
	for _, f := range im.Funcs {
		if _, ok := im.InstrAt(f.Entry); !ok {
			return fmt.Errorf("program: function %s entry %#x outside image", f.Name, f.Entry)
		}
	}
	next := 0 // the merge walk's position in behav
	for i, ins := range code {
		pc := im.Base + uint64(i)*isa.InstrBytes
		if int(ins.Kind) >= isa.NumKinds {
			return fmt.Errorf("program: unknown kind %v at %#x", ins.Kind, pc)
		}
		var b *Behavior
		if next < len(im.behav) && int(im.behav[next].Word) <= i {
			if int(im.behav[next].Word) < i {
				return fmt.Errorf("program: behaviour record %d (word %d) out of order or outside the image", next, im.behav[next].Word)
			}
			b = &im.behav[next].Behavior
			next++
		}
		if want := ins.Kind == isa.CondBranch || ins.Kind == isa.IndirectJump || ins.Kind == isa.IndirectCall; want != (b != nil) {
			return fmt.Errorf("program: %v at %#x has a behaviour record: %t, want %t", ins.Kind, pc, b != nil, want)
		}
		if !hasTarget(ins.Kind) {
			if ins.Target != 0 {
				return fmt.Errorf("program: %v at %#x carries target %#x", ins.Kind, pc, ins.Target)
			}
		} else if _, ok := im.InstrAt(ins.Target); !ok {
			return fmt.Errorf("program: CTI at %#x target %#x outside image", pc, ins.Target)
		}
		switch ins.Kind {
		case isa.IndirectJump, isa.IndirectCall:
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
	if next < len(im.behav) {
		return fmt.Errorf("program: behaviour record %d (word %d) out of order or outside the image", next, im.behav[next].Word)
	}
	return nil
}

// Size returns the code footprint in bytes.
func (im *Image) Size() uint64 { return uint64(len(im.code)) * isa.InstrBytes }

// InstrAt returns the instruction at the given byte address, decoded from
// its word. ok is false if the address is unaligned or outside the image —
// wrong-path fetch can run off the end of the code, and callers must handle
// that.
func (im *Image) InstrAt(addr uint64) (ins isa.Instr, ok bool) {
	ok = im.InstrInto(addr, &ins)
	return ins, ok
}

// InstrInto is InstrAt writing the instruction to *ins, which it leaves
// alone when it returns false. The oracle walker decodes every instruction
// it executes straight into its record this way: a decoded isa.Instr built
// in a temporary by narrow stores and then copied out whole costs a
// store-forwarding stall per instruction.
func (im *Image) InstrInto(addr uint64, ins *isa.Instr) bool {
	// Base is aligned, so one unsigned offset checks alignment and both
	// bounds.
	off := addr - im.Base
	if off%isa.InstrBytes != 0 || off/isa.InstrBytes >= uint64(len(im.code)) {
		return false
	}
	// Branch-free, so InstrInto stays small enough to inline into the
	// walker: the mask keeps the target of the kinds that carry one.
	w := im.code[off/isa.InstrBytes]
	ins.Kind, ins.Dst, ins.Src1, ins.Src2 = isa.Kind(w), uint8(w>>8), uint8(w>>16), uint8(w>>24)
	ins.Target = (im.Base + w>>32*isa.InstrBytes) & -(targetKinds >> (w & 0xff) & 1)
	return true
}

// SchedWord returns the packed scheduler word (isa.Instr.SchedPack) of the
// in-image instruction at addr: its code word's upper half, or, for a
// direct CTI, whose upper half holds the target, the pack of its operands.
func (im *Image) SchedWord(addr uint64) uint32 {
	w := im.code[isa.WordIndex(addr, im.Base)]
	if hasTarget(isa.Kind(w)) {
		ins := isa.Instr{Kind: isa.Kind(w), Dst: uint8(w >> 8), Src1: uint8(w >> 16), Src2: uint8(w >> 24)}
		return ins.SchedPack()
	}
	return uint32(w >> 32)
}

// ordinal returns the position in behav of the record of word w, which
// must have one.
func (im *Image) ordinal(w int) int {
	b := &im.rank[w/64]
	return int(b.base) + bits.OnesCount64(b.mask&(1<<(w%64)-1))
}

// Record returns the behaviour record of the modelled instruction at addr,
// read in place, and its walker-state slot (see StatefulBranches; it is
// meaningless for ModelBiased). addr must hold a conditional branch or an
// indirect jump or call, which New guarantees a record. Callers must not
// modify the record.
func (im *Image) Record(addr uint64) (*Branch, uint32) {
	b := &im.behav[im.ordinal(isa.WordIndex(addr, im.Base))]
	return b, b.slot
}

// StatefulBranches returns the number of records that keep oracle-walker
// state, the bound on Record's slots.
func (im *Image) StatefulBranches() int { return im.nSlots }

// BehaviorAt returns the behaviour of the instruction at addr. It returns a
// zero Behavior for unmodelled instructions and addresses outside the image.
func (im *Image) BehaviorAt(addr uint64) Behavior {
	if _, ok := im.InstrAt(addr); !ok {
		return Behavior{}
	}
	w := isa.WordIndex(addr, im.Base)
	if im.rank[w/64].mask>>(w%64)&1 == 0 {
		return Behavior{}
	}
	return im.behav[im.ordinal(w)].Behavior
}

// KindCounts tallies static instructions by kind.
func (im *Image) KindCounts() [isa.NumKinds]int {
	var c [isa.NumKinds]int
	for _, w := range im.code {
		c[isa.Kind(w)]++
	}
	return c
}

// StaticBranchCount returns the number of static CTIs in the image.
func (im *Image) StaticBranchCount() int {
	n := 0
	for _, w := range im.code {
		if isa.Kind(w).IsCTI() {
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
