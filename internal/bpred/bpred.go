// Package bpred implements conditional branch direction predictors and the
// return address stack used by the branch-prediction unit.
//
// The decoupled front end predicts down a speculative path, so every
// predictor carries *speculative* global history that must be checkpointed
// per branch and repaired on mispredicts. The front end stores History()
// alongside each predicted branch and calls Repair on the stored value when
// that branch resolves wrong.
package bpred

import "fmt"

// Predictor is a conditional-branch direction predictor.
//
// Protocol: the front end calls History() (cheap) to checkpoint, then
// Predict(pc) which returns the direction and shifts it into speculative
// history. At commit of a conditional branch the front end calls
// Commit(pc, hist, taken) with the history that was current when the branch
// predicted. On a misprediction it calls Repair(hist, taken) to rewind
// speculative history and re-apply the actual outcome.
type Predictor interface {
	// Name identifies the predictor in reports.
	Name() string
	// Predict returns the predicted direction for the conditional branch
	// at pc and speculatively updates history.
	Predict(pc uint64) bool
	// History returns the current speculative history word.
	History() uint64
	// Repair rewinds speculative history to hist and shifts in the
	// branch's actual outcome.
	Repair(hist uint64, taken bool)
	// Restore rewinds speculative history to hist without shifting an
	// outcome (repair for non-conditional mispredicts, which never shifted
	// history when predicted).
	Restore(hist uint64)
	// Commit trains the tables with the branch's actual outcome; hist is
	// the history word captured at prediction time.
	Commit(pc uint64, hist uint64, taken bool)
	// Reset restores the pristine just-constructed state — tables at their
	// initial counter values, history cleared — retaining backing storage
	// (the layer-wide Reset contract; see ARCHITECTURE.md).
	Reset()
}

// counter is a 2-bit saturating counter helper.
func bump(c uint8, taken bool) uint8 {
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	return c
}

func predictTaken(c uint8) bool { return c >= 2 }

// pcIndex hashes a word-aligned PC into a table of the given power-of-two
// size.
func pcIndex(pc uint64, size int) int {
	return int((pc >> 2) & uint64(size-1))
}

// Bimodal is a PC-indexed table of 2-bit counters — the classic baseline
// predictor. It keeps no history, so History/Repair are no-ops.
type Bimodal struct {
	table []uint8
}

// NewBimodal creates a bimodal predictor with size counters, a power of two,
// initialised weakly taken.
func NewBimodal(size int) *Bimodal {
	t := make([]uint8, size)
	for i := range t {
		t[i] = 2
	}
	return &Bimodal{table: t}
}

// Name implements Predictor.
func (b *Bimodal) Name() string { return fmt.Sprintf("bimodal-%d", len(b.table)) }

// Predict implements Predictor.
func (b *Bimodal) Predict(pc uint64) bool { return predictTaken(b.table[pcIndex(pc, len(b.table))]) }

// History implements Predictor; bimodal has no history.
func (b *Bimodal) History() uint64 { return 0 }

// Repair implements Predictor; bimodal has no history.
func (b *Bimodal) Repair(uint64, bool) {}

// Restore implements Predictor; bimodal has no history.
func (b *Bimodal) Restore(uint64) {}

// Commit implements Predictor.
func (b *Bimodal) Commit(pc uint64, _ uint64, taken bool) {
	i := pcIndex(pc, len(b.table))
	b.table[i] = bump(b.table[i], taken)
}

// Reset implements Predictor: all counters back to weakly taken.
func (b *Bimodal) Reset() {
	for i := range b.table {
		b.table[i] = 2
	}
}

// Gshare XORs global history with the PC to index a shared counter table.
type Gshare struct {
	table    []uint8
	histBits uint
	ghr      uint64
}

// NewGshare creates a gshare predictor with size counters, a power of two,
// and histBits (at most 32) of global history.
func NewGshare(size int, histBits uint) *Gshare {
	t := make([]uint8, size)
	for i := range t {
		t[i] = 2
	}
	return &Gshare{table: t, histBits: histBits}
}

// Name implements Predictor.
func (g *Gshare) Name() string { return fmt.Sprintf("gshare-%d", len(g.table)) }

func (g *Gshare) index(pc, hist uint64) int {
	mask := uint64(1)<<g.histBits - 1
	return int(((pc >> 2) ^ (hist & mask)) & uint64(len(g.table)-1))
}

// Predict implements Predictor.
func (g *Gshare) Predict(pc uint64) bool {
	taken := predictTaken(g.table[g.index(pc, g.ghr)])
	g.shift(taken)
	return taken
}

func (g *Gshare) shift(taken bool) {
	g.ghr <<= 1
	if taken {
		g.ghr |= 1
	}
}

// History implements Predictor.
func (g *Gshare) History() uint64 { return g.ghr }

// Repair implements Predictor.
func (g *Gshare) Repair(hist uint64, taken bool) {
	g.ghr = hist
	g.shift(taken)
}

// Restore implements Predictor.
func (g *Gshare) Restore(hist uint64) { g.ghr = hist }

// Commit implements Predictor.
func (g *Gshare) Commit(pc uint64, hist uint64, taken bool) {
	i := g.index(pc, hist)
	g.table[i] = bump(g.table[i], taken)
}

// Reset implements Predictor: counters weakly taken, history cleared.
func (g *Gshare) Reset() {
	for i := range g.table {
		g.table[i] = 2
	}
	g.ghr = 0
}

// Hybrid is a McFarling-style combining predictor: bimodal + gshare with a
// PC-indexed meta chooser, the configuration the original paper's simulated
// front end used.
type Hybrid struct {
	bim  *Bimodal
	gsh  *Gshare
	meta []uint8
}

// NewHybrid creates a hybrid predictor; each component table gets size
// counters, a power of two.
func NewHybrid(size int, histBits uint) *Hybrid {
	m := make([]uint8, size)
	for i := range m {
		m[i] = 2 // weakly prefer gshare
	}
	return &Hybrid{bim: NewBimodal(size), gsh: NewGshare(size, histBits), meta: m}
}

// Name implements Predictor.
func (h *Hybrid) Name() string { return fmt.Sprintf("hybrid-%d", len(h.meta)) }

// Predict implements Predictor.
func (h *Hybrid) Predict(pc uint64) bool {
	bp := h.bim.Predict(pc)
	gp := predictTaken(h.gsh.table[h.gsh.index(pc, h.gsh.ghr)])
	var taken bool
	if predictTaken(h.meta[pcIndex(pc, len(h.meta))]) {
		taken = gp
	} else {
		taken = bp
	}
	h.gsh.shift(taken)
	return taken
}

// History implements Predictor.
func (h *Hybrid) History() uint64 { return h.gsh.ghr }

// Repair implements Predictor.
func (h *Hybrid) Repair(hist uint64, taken bool) { h.gsh.Repair(hist, taken) }

// Restore implements Predictor.
func (h *Hybrid) Restore(hist uint64) { h.gsh.Restore(hist) }

// Commit implements Predictor.
func (h *Hybrid) Commit(pc uint64, hist uint64, taken bool) {
	bp := h.bim.Predict(pc)
	gp := predictTaken(h.gsh.table[h.gsh.index(pc, hist)])
	h.bim.Commit(pc, hist, taken)
	gi := h.gsh.index(pc, hist)
	h.gsh.table[gi] = bump(h.gsh.table[gi], taken)
	// Train the chooser toward whichever component was right.
	if bp != gp {
		mi := pcIndex(pc, len(h.meta))
		h.meta[mi] = bump(h.meta[mi], gp == taken)
	}
}

// Reset implements Predictor: both components plus the chooser (back to
// weakly preferring gshare).
func (h *Hybrid) Reset() {
	h.bim.Reset()
	h.gsh.Reset()
	for i := range h.meta {
		h.meta[i] = 2
	}
}

// Static predicts a fixed direction; useful as an experimental floor.
type Static struct {
	// Taken is the direction predicted for every branch.
	Taken bool
}

// Name implements Predictor.
func (s *Static) Name() string {
	if s.Taken {
		return "static-taken"
	}
	return "static-nottaken"
}

// Predict implements Predictor.
func (s *Static) Predict(uint64) bool { return s.Taken }

// History implements Predictor.
func (s *Static) History() uint64 { return 0 }

// Repair implements Predictor.
func (s *Static) Repair(uint64, bool) {}

// Restore implements Predictor.
func (s *Static) Restore(uint64) {}

// Commit implements Predictor.
func (s *Static) Commit(uint64, uint64, bool) {}

// Reset implements Predictor; static predictors have no state.
func (s *Static) Reset() {}

// New constructs a predictor by name: "bimodal", "gshare", "local",
// "hybrid", "static-taken", "static-nottaken".
func New(name string, size int, histBits uint) (Predictor, error) {
	switch name {
	case "bimodal":
		return NewBimodal(size), nil
	case "gshare":
		return NewGshare(size, histBits), nil
	case "local":
		return NewLocal(size, histBits), nil
	case "hybrid", "":
		return NewHybrid(size, histBits), nil
	case "static-taken":
		return &Static{Taken: true}, nil
	case "static-nottaken":
		return &Static{}, nil
	}
	return nil, fmt.Errorf("bpred: unknown predictor %q", name)
}
