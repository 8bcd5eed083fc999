// Package pipe defines the dynamic instruction record (uop) that flows from
// the fetch engine through decode into the backend, carrying both the
// prediction state needed for recovery and the oracle outcome needed for
// misprediction detection.
package pipe

import (
	"fdip/internal/bpred"
	"fdip/internal/isa"
)

// MispredictKind classifies why a branch redirected the front end.
type MispredictKind uint8

const (
	// MissNone marks correctly predicted instructions.
	MissNone MispredictKind = iota
	// MissDirection is a conditional predicted the wrong way.
	MissDirection
	// MissTarget is a taken CTI whose predicted target was wrong
	// (indirect target changes, stale FTB targets).
	MissTarget
	// MissUnseenCTI is a control transfer the FTB did not know about, so
	// the front end sailed past it sequentially.
	MissUnseenCTI
	// MissReturn is a return whose RAS prediction was wrong.
	MissReturn
)

// String names the kind.
func (k MispredictKind) String() string {
	switch k {
	case MissNone:
		return "none"
	case MissDirection:
		return "direction"
	case MissTarget:
		return "target"
	case MissUnseenCTI:
		return "unseen-cti"
	case MissReturn:
		return "return"
	}
	return "mispredict(?)"
}

// Uop is one fetched dynamic instruction.
type Uop struct {
	// Seq is the global fetch order, assigned by the fetch engine.
	Seq uint64
	// PC is the instruction address.
	PC uint64
	// Instr is the static instruction.
	Instr isa.Instr

	// PredNextPC is where the front end fetches next after this
	// instruction (sequential mid-block, the block prediction at the end).
	PredNextPC uint64

	// BlockStart/BlockLen identify the fetch block this instruction ends
	// (length in instructions up to and including this one); used to train
	// the FTB when the instruction is a CTI.
	BlockStart uint64
	BlockLen   int
	// Sched is Instr's packed scheduler word (isa.Instr.SchedPack), assigned
	// by whoever writes Instr — the backend's wakeup scheduler consumes it at
	// ROB fill without re-deriving operands or latency from the arena. It
	// sits in what was alignment padding.
	Sched uint32
	// HistCP is the direction-history checkpoint taken before this
	// block's terminator predicted.
	HistCP uint64
	// RASCP is the RAS checkpoint taken before this block's terminator
	// adjusted the stack.
	RASCP bpred.RASCheckpoint

	// OnCorrectPath is true for instructions matching the oracle stream;
	// wrong-path instructions are squashed at the next redirect.
	OnCorrectPath bool
	// ActualTaken and ActualNextPC are the oracle outcome (correct path
	// only).
	ActualTaken  bool
	ActualNextPC uint64
	// Mispredicted marks a correct-path instruction whose PredNextPC
	// disagrees with the oracle; resolving it redirects the front end.
	Mispredicted bool
	// MissKind classifies the misprediction.
	MissKind MispredictKind
}
