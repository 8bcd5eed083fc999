// Package btb implements the branch target storage used by the
// branch-prediction unit: the fetch-block-oriented fetch target buffer (FTB)
// from the original paper, and a conventional per-branch BTB used as an
// ablation.
//
// A fetch block is straight-line code that ends at the first control
// transfer; the FTB maps a block's start address to the block length, the
// terminating CTI's kind, and its most recent taken target. A conventional
// BTB instead maps each branch address to its kind and target, which costs
// extra lookup bandwidth (one probe per sequential instruction) but no
// block-length storage.
package btb

import (
	"math/bits"

	"fdip/internal/isa"
)

// Config sizes a target buffer.
type Config struct {
	// Sets is the number of sets, a power of two.
	Sets int
	// Ways is the set associativity.
	Ways int
	// BlockOriented selects the FTB organisation (true) or the
	// conventional per-branch BTB (false).
	BlockOriented bool
	// MaxBlockInstrs caps predicted fetch-block length; it also bounds the
	// probe loop in conventional mode. Must fit the entry's 5-bit length
	// field: 1 to 31.
	MaxBlockInstrs int
	// AddrBits is the virtual address width used for storage accounting.
	AddrBits int
}

// DefaultConfig returns the baseline 512-set 4-way FTB with 8-instruction
// fetch blocks in a 48-bit address space.
func DefaultConfig() Config {
	return Config{Sets: 512, Ways: 4, BlockOriented: true, MaxBlockInstrs: 8, AddrBits: 48}
}

// Pred is a fetch-block prediction returned by PredictBlock.
type Pred struct {
	// NumInstrs is the block length in instructions, including the CTI.
	NumInstrs int
	// CTI is the terminating control transfer's kind.
	CTI isa.Kind
	// Target is the last observed taken target of the CTI.
	Target uint64
}

// entry is one way in 24 bytes. key folds the entry's metadata into its tag
// word, tag<<keyTagShift | cti<<keyCTIShift | length<<keyLenShift | valid, so
// a tag match is one compare of the key with its length and kind bits masked
// off; an invalid entry has key 0. Instruction addresses stay far below
// 2^56, so no tag loses a bit to the shift.
type entry struct {
	key    uint64
	target uint64
	stamp  uint64
}

const (
	keyValid    = 1
	keyLenShift = 1 // 5 bits: MaxBlockInstrs is at most 31
	keyCTIShift = 6 // 4 bits: an isa.Kind
	keyTagShift = 10
	// keyMeta masks the length and kind fields.
	keyMeta = 1<<keyTagShift - 1 - keyValid
)

// Every isa.Kind fits the key's 4-bit kind field.
const _ = uint(1<<(keyTagShift-keyCTIShift) - isa.NumKinds)

func (e *entry) pred() Pred {
	return Pred{
		NumInstrs: int(e.key >> keyLenShift & 31),
		CTI:       isa.Kind(e.key >> keyCTIShift & 15),
		Target:    e.target,
	}
}

// TargetBuffer is a set-associative FTB/BTB with true-LRU replacement.
type TargetBuffer struct {
	cfg Config
	// entries holds every way, set si at [si*Ways, (si+1)*Ways).
	entries  []entry
	setShift uint
	clock    uint64

	// Lookups counts raw probes (conventional mode performs several per
	// predicted block). Hits/Misses count probe outcomes. Inserts counts
	// new-entry allocations, Updates in-place retrains, Evictions valid
	// victims replaced.
	Lookups, Hits, Misses, Inserts, Updates, Evictions uint64
}

// New creates a target buffer. The configuration is taken as given: every
// field set, within its documented range (core.Config.Validate ensures it).
func New(cfg Config) *TargetBuffer {
	return &TargetBuffer{
		cfg:      cfg,
		entries:  make([]entry, cfg.Sets*cfg.Ways),
		setShift: uint(bits.TrailingZeros(uint(cfg.Sets))),
	}
}

// Config returns the configuration.
func (t *TargetBuffer) Config() Config { return t.cfg }

// Entries returns the total entry capacity.
func (t *TargetBuffer) Entries() int { return t.cfg.Sets * t.cfg.Ways }

// find returns the index in entries of the entry for pc, or -1, and the
// first index of pc's set.
func (t *TargetBuffer) find(pc uint64) (idx, lo int) {
	word := pc >> 2
	lo = int(word&uint64(t.cfg.Sets-1)) * t.cfg.Ways
	want := word>>t.setShift<<keyTagShift | keyValid
	set := t.entries[lo : lo+t.cfg.Ways]
	for i := range set {
		if set[i].key&^keyMeta == want {
			return lo + i, lo
		}
	}
	return -1, lo
}

// lookup probes one address.
func (t *TargetBuffer) lookup(pc uint64) (Pred, bool) {
	t.Lookups++
	i, _ := t.find(pc)
	if i < 0 {
		t.Misses++
		return Pred{}, false
	}
	t.Hits++
	t.clock++
	e := &t.entries[i]
	e.stamp = t.clock
	return e.pred(), true
}

// insert allocates or retrains the entry for pc.
func (t *TargetBuffer) insert(pc uint64, length int, cti isa.Kind, target uint64) {
	length = max(1, min(length, t.cfg.MaxBlockInstrs))
	meta := uint64(cti&15)<<keyCTIShift | uint64(length)<<keyLenShift
	i, lo := t.find(pc)
	t.clock++
	// Retrain an existing entry in place.
	if i >= 0 {
		e := &t.entries[i]
		e.key = e.key&^keyMeta | meta
		e.target = target
		e.stamp = t.clock
		t.Updates++
		return
	}
	// Allocate: prefer an invalid way, else evict true-LRU.
	set := t.entries[lo : lo+t.cfg.Ways]
	victim := 0
	for i := range set {
		if set[i].key&keyValid == 0 {
			victim = i
			goto fill
		}
		if set[i].stamp < set[victim].stamp {
			victim = i
		}
	}
	t.Evictions++
fill:
	set[victim] = entry{key: pc>>2>>t.setShift<<keyTagShift | meta | keyValid, target: target, stamp: t.clock}
	t.Inserts++
}

// PredictBlock returns the predicted fetch block starting at pc. In
// block-oriented mode this is a single probe; in conventional mode the
// buffer is probed at each sequential instruction address until a branch
// entry hits or MaxBlockInstrs addresses have been scanned. ok reports
// whether any prediction was found; on a miss the caller should assume a
// maximal sequential block.
func (t *TargetBuffer) PredictBlock(pc uint64) (Pred, bool) {
	if t.cfg.BlockOriented {
		p, ok := t.lookup(pc)
		if ok && p.NumInstrs == 0 {
			p.NumInstrs = 1
		}
		return p, ok
	}
	for i := 0; i < t.cfg.MaxBlockInstrs; i++ {
		if p, ok := t.lookup(pc + uint64(i)*isa.InstrBytes); ok {
			p.NumInstrs = i + 1
			return p, true
		}
	}
	return Pred{}, false
}

// Peek reports whether an entry for pc is resident without perturbing
// predictor state: no probe counters, no LRU refresh. The
// shadow-branch prefetcher uses it to skip prefilling blocks the buffer
// already knows, and statistics must stay bit-identical whether or not it
// runs.
func (t *TargetBuffer) Peek(pc uint64) bool {
	i, _ := t.find(pc)
	return i >= 0
}

// TrainBlock records a resolved fetch block: start address, length in
// instructions (the CTI is the last one), the CTI kind, and its taken
// target (the fall-through is never stored).
func (t *TargetBuffer) TrainBlock(start uint64, numInstrs int, cti isa.Kind, target uint64) {
	if t.cfg.BlockOriented {
		t.insert(start, numInstrs, cti, target)
		return
	}
	branchPC := start + uint64(numInstrs-1)*isa.InstrBytes
	t.insert(branchPC, 1, cti, target)
}

// Reset restores the pristine just-constructed state: every entry invalid,
// the LRU clock rewound, and counters zeroed, retaining the backing array.
func (t *TargetBuffer) Reset() {
	clear(t.entries)
	t.clock = 0
	t.Lookups, t.Hits, t.Misses = 0, 0, 0
	t.Inserts, t.Updates, t.Evictions = 0, 0, 0
}

// EntryBits returns the storage cost of one entry following the paper's
// accounting: a tag of (AddrBits - log2(sets) - 2) bits, a 2-bit type, a
// 46-bit target, and — in block-oriented mode — a 5-bit block size.
func (t *TargetBuffer) EntryBits() int {
	tag := t.cfg.AddrBits - int(t.setShift) - 2
	if tag < 0 {
		tag = 0
	}
	bits := tag + 2 + 46
	if t.cfg.BlockOriented {
		bits += 5
	}
	return bits
}

// StorageBytes returns the total table storage in bytes.
func (t *TargetBuffer) StorageBytes() int {
	return t.Entries() * t.EntryBits() / 8
}

// HitRate returns the fraction of probes that hit.
func (t *TargetBuffer) HitRate() float64 {
	if t.Lookups == 0 {
		return 0
	}
	return float64(t.Hits) / float64(t.Lookups)
}
