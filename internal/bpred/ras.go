package bpred

// RAS is a circular return address stack with single-entry checkpoint
// repair: a checkpoint captures the stack pointer and the top value, which
// recovers the common case of a few pushes/pops down the wrong path.
type RAS struct {
	buf []uint64
	sp  int // index of the top element; -1 when empty
	len int // number of live entries (saturates at cap)

	// Pushes, Pops, Underflows count stack traffic for reports.
	Pushes, Pops, Underflows uint64
}

// RASCheckpoint snapshots the repair state of a RAS.
type RASCheckpoint struct {
	sp  int
	len int
	top uint64
}

// NewRAS creates a return address stack with the given capacity, at least 1.
func NewRAS(capacity int) *RAS {
	return &RAS{buf: make([]uint64, capacity), sp: -1}
}

// Push records a return address (on a predicted call).
func (r *RAS) Push(addr uint64) {
	r.Pushes++
	r.sp = (r.sp + 1) % len(r.buf)
	r.buf[r.sp] = addr
	if r.len < len(r.buf) {
		r.len++
	}
}

// Pop predicts a return target. ok is false on underflow, in which case the
// caller should fall back to a sequential or BTB prediction.
func (r *RAS) Pop() (addr uint64, ok bool) {
	if r.len == 0 {
		r.Underflows++
		return 0, false
	}
	r.Pops++
	addr = r.buf[r.sp]
	r.sp--
	if r.sp < 0 {
		r.sp = len(r.buf) - 1
	}
	r.len--
	return addr, true
}

// Checkpoint captures repair state. Take it *before* the push/pop performed
// for the branch being checkpointed.
func (r *RAS) Checkpoint() RASCheckpoint {
	cp := RASCheckpoint{sp: r.sp, len: r.len}
	if r.len > 0 {
		cp.top = r.buf[r.sp]
	}
	return cp
}

// Restore rewinds to a checkpoint, repairing the top entry that wrong-path
// pushes may have clobbered.
func (r *RAS) Restore(cp RASCheckpoint) {
	r.sp = cp.sp
	r.len = cp.len
	if cp.len > 0 {
		r.buf[r.sp] = cp.top
	}
}

// Reset restores the pristine just-constructed state: an empty stack with
// counters zeroed, retaining the backing array.
func (r *RAS) Reset() {
	clear(r.buf)
	r.sp = -1
	r.len = 0
	r.Pushes, r.Pops, r.Underflows = 0, 0, 0
}
