// Package ftq implements the fetch target queue — the structure that
// decouples the branch-prediction unit from the fetch engine and whose
// non-head entries feed fetch-directed prefetching.
//
// Each entry is a predicted fetch block. The queue tracks, per cache line a
// block spans, the prefetch engine's progress on that line (candidate,
// enqueued, prefetched, or filtered), which is how the original design
// avoided re-prefetching lines as the prefetch engine re-scans the queue.
package ftq

import (
	"fmt"

	"fdip/internal/bpred"
	"fdip/internal/isa"
)

// LineState tracks the prefetch engine's progress on one cache line of a
// fetch block.
type LineState uint8

const (
	// LineCandidate lines have not been considered yet.
	LineCandidate LineState = iota
	// LineEnqueued lines sit in the prefetch instruction queue.
	LineEnqueued
	// LinePrefetched lines have had a prefetch issued.
	LinePrefetched
	// LineFiltered lines were dropped by a filter (already cached, or
	// rejected by cache-probe filtering).
	LineFiltered
)

// String names the state.
func (s LineState) String() string {
	switch s {
	case LineCandidate:
		return "candidate"
	case LineEnqueued:
		return "enqueued"
	case LinePrefetched:
		return "prefetched"
	case LineFiltered:
		return "filtered"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Line is one cache line spanned by a fetch block.
type Line struct {
	// Addr is the line-aligned address.
	Addr uint64
	// State is the prefetch progress for this line.
	State LineState
}

// Block is one FTQ entry: a predicted fetch block plus the recovery state
// captured when it was predicted.
type Block struct {
	// Seq is the BPU's monotonically increasing block sequence number.
	Seq uint64
	// Start is the block's first instruction address.
	Start uint64
	// NumInstrs is the predicted block length, including the terminating
	// CTI when EndsInCTI.
	NumInstrs int
	// EndsInCTI reports whether the block ends in a predicted CTI (false
	// for maximal sequential blocks predicted on an FTB miss).
	EndsInCTI bool
	// CTIKind is the terminator's kind when EndsInCTI.
	CTIKind isa.Kind
	// PredTaken is the predicted direction of the terminator.
	PredTaken bool
	// PredTarget is the predicted target when PredTaken.
	PredTarget uint64
	// FTBHit records whether the FTB supplied this block.
	FTBHit bool
	// HistCP is the direction-predictor history checkpoint taken before
	// this block's terminator predicted.
	HistCP uint64
	// RASCP is the return-address-stack checkpoint taken before this
	// block's terminator adjusted the stack.
	RASCP bpred.RASCheckpoint
	// FetchedInstrs is the fetch engine's progress through the block.
	FetchedInstrs int
	// Lines lists the cache lines the block spans, in address order.
	Lines []Line
}

// End returns the first byte address past the block.
func (b *Block) End() uint64 { return b.Start + uint64(b.NumInstrs)*isa.InstrBytes }

// NextFetchPC returns the address of the next unfetched instruction.
func (b *Block) NextFetchPC() uint64 {
	return b.Start + uint64(b.FetchedInstrs)*isa.InstrBytes
}

// Done reports whether the fetch engine has consumed the whole block.
func (b *Block) Done() bool { return b.FetchedInstrs >= b.NumInstrs }

// Queue is a bounded FIFO of fetch blocks.
type Queue struct {
	lineSize int
	entries  []Block
	head     int
	count    int
	// newestSeq is the Seq of the most recently pushed block, captured at
	// CommitPush. It is monotone over the queue's lifetime and only
	// meaningful while the queue is non-empty — the prefetch scan's "is
	// there anything unscanned?" fast path reads it instead of chasing the
	// tail block through the ring every cycle.
	newestSeq uint64

	// Pushed and Squashes count queue traffic; FullStalls counts PushSlot
	// rejections due to a full queue.
	Pushed, Squashes, FullStalls uint64
}

// New creates a queue of the given capacity (fetch blocks, at least 1) for
// a cache with the given line size (a power of two, at least
// isa.InstrBytes).
func New(capacity, lineSize int) *Queue {
	return &Queue{lineSize: lineSize, entries: make([]Block, capacity)}
}

// wrap folds a position into [0, cap). Positions exceed the capacity by at
// most one lap, so a conditional subtract replaces a modulo on hot paths.
func (q *Queue) wrap(i int) int {
	if i >= len(q.entries) {
		i -= len(q.entries)
	}
	return i
}

// Len returns the number of queued blocks.
func (q *Queue) Len() int { return q.count }

// Full reports whether the queue is full.
func (q *Queue) Full() bool { return q.count == len(q.entries) }

// PushSlot begins an in-place push: it reserves the next queue slot and
// returns it, or nil — counting a stall — when the queue is full. The
// reusable line buffer is retained (reset to length zero) and only the
// fields an in-place builder may leave unset — EndsInCTI, CTIKind,
// PredTaken, PredTarget, FetchedInstrs — are cleared; the caller must
// assign Seq, Start, NumInstrs, FTBHit, HistCP, and RASCP (zeroing the
// whole ~100-byte block per push was measurable in the prediction hot
// path). The caller must then call CommitPush, which derives the slot's
// cache-line decomposition and makes it visible. Nothing else may touch
// the queue in between.
func (q *Queue) PushSlot() *Block {
	if q.Full() {
		q.FullStalls++
		return nil
	}
	b := &q.entries[q.wrap(q.head+q.count)]
	b.Lines = b.Lines[:0]
	b.EndsInCTI = false
	b.CTIKind = 0
	b.PredTaken = false
	b.PredTarget = 0
	b.FetchedInstrs = 0
	return b
}

// CommitPush completes a push started with PushSlot.
func (q *Queue) CommitPush() {
	b := &q.entries[q.wrap(q.head+q.count)]
	first := b.Start &^ uint64(q.lineSize-1)
	last := (b.End() - 1) &^ uint64(q.lineSize-1)
	for addr := first; addr <= last; addr += uint64(q.lineSize) {
		b.Lines = append(b.Lines, Line{Addr: addr, State: LineCandidate})
	}
	q.newestSeq = b.Seq
	q.count++
	q.Pushed++
}

// NewestSeq returns the sequence number of the youngest queued block. Only
// meaningful when the queue is non-empty.
func (q *Queue) NewestSeq() uint64 { return q.newestSeq }

// Head returns the fetch point, or nil when empty.
func (q *Queue) Head() *Block {
	if q.count == 0 {
		return nil
	}
	return &q.entries[q.head]
}

// At returns the i-th block from the head (At(0) == Head()), or nil when out
// of range. The pointer is valid until the next PushSlot/PopHead/Squash.
func (q *Queue) At(i int) *Block {
	if i < 0 || i >= q.count {
		return nil
	}
	return &q.entries[q.wrap(q.head+i)]
}

// PopHead removes the fetch point after the fetch engine consumes it.
func (q *Queue) PopHead() {
	if q.count == 0 {
		return
	}
	q.head = q.wrap(q.head + 1)
	q.count--
}

// Squash empties the queue (branch misprediction redirect).
func (q *Queue) Squash() {
	q.head = 0
	q.count = 0
	q.Squashes++
}

// Reset restores the pristine just-constructed state: an empty queue with
// counters zeroed. Each slot's reusable line buffer is retained (PushSlot
// and its caller contract rebuild every field before a slot becomes
// visible, so stale block contents are unobservable).
func (q *Queue) Reset() {
	q.head = 0
	q.count = 0
	q.Pushed, q.Squashes, q.FullStalls = 0, 0, 0
}
