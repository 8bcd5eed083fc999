// Package isa defines the synthetic instruction set used throughout the
// simulator.
//
// The reproduction targets an instruction *fetch* study, so the ISA only
// models what the front end and a scoreboard backend can observe: an
// instruction kind, register operands (for backend dependence modelling), an
// execution latency class, and — for direct control-transfer instructions —
// a static target address.
//
// Instructions are fixed-width (4 bytes) and word aligned, matching the
// RISC-style machines the original paper simulated.
package isa

import "fmt"

// InstrBytes is the size of every instruction in bytes. All instruction
// addresses are InstrBytes-aligned.
const InstrBytes = 4

// Kind enumerates instruction categories. The front end cares about the
// control-transfer kinds; the backend cares about latency and operands.
type Kind uint8

const (
	// Nop performs no work. Used for padding between functions.
	Nop Kind = iota
	// ALU is a single-cycle integer operation.
	ALU
	// Mul is a multi-cycle integer operation (multiply/divide class).
	Mul
	// Load reads memory; the backend charges the data-cache hit latency.
	Load
	// Store writes memory; retires without stalling consumers.
	Store
	// FPU is a multi-cycle floating-point operation.
	FPU
	// CondBranch is a conditional direct branch: taken → Target, else
	// fall through.
	CondBranch
	// Jump is an unconditional direct branch to Target.
	Jump
	// Call is a direct function call to Target; pushes the return address.
	Call
	// Ret returns to the address on top of the call stack.
	Ret
	// IndirectJump jumps through a register; the dynamic target comes from
	// the oracle. Predicted via the BTB's last-seen target.
	IndirectJump
	// IndirectCall calls through a register; pushes the return address.
	IndirectCall

	numKinds
)

// NumKinds reports the number of distinct instruction kinds.
const NumKinds = int(numKinds)

var kindNames = [...]string{
	Nop: "nop", ALU: "alu", Mul: "mul", Load: "load", Store: "store",
	FPU: "fpu", CondBranch: "bcond", Jump: "jump", Call: "call", Ret: "ret",
	IndirectJump: "ijump", IndirectCall: "icall",
}

// String returns the assembler-style mnemonic for k.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsCTI reports whether k is a control-transfer instruction.
func (k Kind) IsCTI() bool {
	switch k {
	case CondBranch, Jump, Call, Ret, IndirectJump, IndirectCall:
		return true
	}
	return false
}

// IsCall reports whether k pushes a return address.
func (k Kind) IsCall() bool { return k == Call || k == IndirectCall }

// IsReturn reports whether k pops a return address.
func (k Kind) IsReturn() bool { return k == Ret }

// IsIndirect reports whether k's target is not encoded in the instruction.
func (k Kind) IsIndirect() bool {
	return k == Ret || k == IndirectJump || k == IndirectCall
}

// Latency returns the execution latency, in cycles, charged by the backend
// once the instruction's operands are ready.
func (k Kind) Latency() int {
	switch k {
	case Mul:
		return 4
	case FPU:
		return 3
	case Load:
		return 2 // L1-D hit; the study assumes a well-behaved data side.
	default:
		return 1
	}
}

// latTable is Latency in table form: one unconditional load where the
// switch would cost data-dependent branches — the difference matters on the
// scheduler pack path, which runs once per fetched instruction.
var latTable = func() (t [NumKinds]uint8) {
	for k := range t {
		t[k] = uint8(Kind(k).Latency())
	}
	return t
}()

// SchedPack packs everything the backend's wakeup scheduler needs from the
// instruction — sources, destination, latency — into one word:
// src1 | src2<<8 | dst<<16 | latency<<24. NoReg and the hardwired r0 both
// map to register 0, which the scoreboard never writes, so a readiness
// check is two regReady loads and a max with no absent-operand branches;
// destination 0 doubles as "no destination" (r0 writes are discarded).
func (i *Instr) SchedPack() uint32 {
	s1, s2, d := i.Src1, i.Src2, i.Dst
	if s1 >= NumRegs {
		s1 = 0
	}
	if s2 >= NumRegs {
		s2 = 0
	}
	if d >= NumRegs {
		d = 0
	}
	return uint32(s1) | uint32(s2)<<8 | uint32(d)<<16 | uint32(latTable[i.Kind])<<24
}

// NoReg marks an absent register operand.
const NoReg uint8 = 0xFF

// NumRegs is the architectural register count. Register 0 is a hardwired
// zero and never written.
const NumRegs = 64

// Instr is one static instruction in a program image.
type Instr struct {
	// Kind categorises the instruction.
	Kind Kind
	// Dst is the destination register, or NoReg.
	Dst uint8
	// Src1, Src2 are source registers, or NoReg.
	Src1, Src2 uint8
	// Target is the static target address for direct CTIs (CondBranch,
	// Jump, Call). Zero and meaningless for other kinds.
	Target uint64
}

// IsCTI reports whether the instruction transfers control.
func (i Instr) IsCTI() bool { return i.Kind.IsCTI() }

// String formats the instruction for debugging.
func (i Instr) String() string {
	if i.Kind.IsCTI() && !i.Kind.IsIndirect() {
		return fmt.Sprintf("%s -> %#x", i.Kind, i.Target)
	}
	return i.Kind.String()
}

// NextPC returns the fall-through address of the instruction at pc.
func NextPC(pc uint64) uint64 { return pc + InstrBytes }

// WordIndex converts a byte address relative to base into an instruction
// index.
func WordIndex(addr, base uint64) int { return int((addr - base) / InstrBytes) }
