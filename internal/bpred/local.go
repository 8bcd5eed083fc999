package bpred

import "fmt"

// Local is a two-level per-branch-history predictor (PAg): a branch history
// table indexed by PC feeds a shared pattern history table of 2-bit
// counters. Local history captures per-branch periodic behaviour (loop trip
// counts, short patterns) that global history misses when the surrounding
// path is noisy.
//
// History is updated non-speculatively at commit, so in-flight instances of
// the same branch predict with slightly stale history — a common hardware
// simplification that keeps recovery free (History/Repair are no-ops).
type Local struct {
	bht      []uint16
	pht      []uint8
	histBits uint
}

// NewLocal creates a local predictor with size entries in both levels, a
// power of two, and histBits of per-branch history (max 16).
func NewLocal(size int, histBits uint) *Local {
	pht := make([]uint8, size)
	for i := range pht {
		pht[i] = 2
	}
	return &Local{
		bht:      make([]uint16, size),
		pht:      pht,
		histBits: histBits,
	}
}

// Name implements Predictor.
func (l *Local) Name() string { return fmt.Sprintf("local-%d", len(l.pht)) }

func (l *Local) phtIndex(hist uint16) int {
	mask := uint32(1)<<l.histBits - 1
	return int(uint32(hist) & mask & uint32(len(l.pht)-1))
}

// Predict implements Predictor.
func (l *Local) Predict(pc uint64) bool {
	h := l.bht[pcIndex(pc, len(l.bht))]
	return predictTaken(l.pht[l.phtIndex(h)])
}

// History implements Predictor; local history is commit-updated, so there is
// nothing to checkpoint.
func (l *Local) History() uint64 { return 0 }

// Repair implements Predictor.
func (l *Local) Repair(uint64, bool) {}

// Restore implements Predictor.
func (l *Local) Restore(uint64) {}

// Commit implements Predictor: train the pattern counter under the branch's
// pre-update history, then shift the outcome into its history.
func (l *Local) Commit(pc uint64, _ uint64, taken bool) {
	bi := pcIndex(pc, len(l.bht))
	h := l.bht[bi]
	pi := l.phtIndex(h)
	l.pht[pi] = bump(l.pht[pi], taken)
	h <<= 1
	if taken {
		h |= 1
	}
	l.bht[bi] = h
}

// Reset implements Predictor: histories cleared, counters weakly taken.
func (l *Local) Reset() {
	clear(l.bht)
	for i := range l.pht {
		l.pht[i] = 2
	}
}
