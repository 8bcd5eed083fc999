// Package backend models the execution core behind the decoupled front end:
// a decode pipe, a reorder buffer with a register scoreboard (out-of-order
// issue within a window, in-order commit), and branch resolution.
//
// The study targets the front end, so the backend is deliberately simple but
// honest about what matters to it: instruction consumption rate, window
// occupancy, execution latency before a branch resolves, and in-order commit
// of correct-path work only.
package backend

import (
	"fmt"
	"math"
	"math/bits"

	"fdip/internal/isa"
	"fdip/internal/pipe"
)

// Config sizes the backend.
type Config struct {
	// ROBSize is the reorder buffer capacity.
	ROBSize int
	// IssueWidth and CommitWidth bound per-cycle issue and commit.
	IssueWidth, CommitWidth int
	// IssueWindow is how many unissued entries the scheduler examines per
	// cycle (a cheap stand-in for scheduler size).
	IssueWindow int
	// DecodeLatency is the fetch-to-rename depth in cycles.
	DecodeLatency int
	// PipeCap is the decode pipe capacity in instructions; it is the
	// backpressure the fetch engine sees.
	PipeCap int
}

// DefaultConfig returns the paper-inspired 8-wide, 128-entry core.
func DefaultConfig() Config {
	return Config{ROBSize: 128, IssueWidth: 8, CommitWidth: 8, IssueWindow: 32, DecodeLatency: 3, PipeCap: 32}
}

// Backend is the execution model.
type Backend struct {
	cfg Config

	// ar is the uop arena: the single home of every in-flight dynamic
	// instruction record. The backend owns it — max in-flight is the
	// decode pipe capacity plus the ROB size, both backend dimensions —
	// and the fetch engine allocates into it (see core's wiring). Every
	// structure below holds 32-bit arena indices, never Uop values.
	ar *pipe.Arena

	// The ROB is stored as parallel arrays: the scheduler and commit scans
	// touch only the dense arrays below, and nothing here ever copies a
	// uop record. robEnt packs each entry's arena index (low 32 bits) with
	// its scheduler meta word (high 32 bits, pipe.Uop.Sched: src1 |
	// src2<<8 | dst<<16 | latency<<24, NoReg/r0 mapped to 0) — fill writes
	// both with one store, and an issue visit reads the operands and the
	// arena index for the mispredict hand-off from one load.
	robEnt    []uint64
	robIssued []bool
	robDone   []int64
	head      int
	count     int

	regReady [isa.NumRegs]int64
	// The decode pipe is a FIFO ring of delivery segments: each Deliver
	// call hands over one contiguous arena range whose uops all decode on
	// the same cycle, so the pipe stores (first, n, ready) triples instead
	// of per-uop entries — O(1) delivery, no per-instruction append
	// traffic. Every segment holds at least one instruction and the pipe
	// holds at most PipeCap instructions (Deliver is bounded by Accept),
	// so PipeCap segments always suffice.
	dpSegs   []dpSeg
	dpSegHd  int
	dpSegCnt int
	dpCount  int // instructions across all segments

	missPresent bool
	missIssued  bool
	missDone    int64
	missIdx     uint32 // arena index of the pending mispredict (valid while missPresent)

	// Wakeup scheduler. The unissued ROB entries live in a bitmap (unbits,
	// one bit per slot), so selection iterates exactly the window's entries
	// in age order with trailing-zeros extraction — the issued holes the
	// ROB ring scan steps over one by one simply have no bits — and each
	// entry's operands live in the packed high half of its robEnt word, so
	// a readiness check is two regReady loads and a compare, no arena
	// access. wakeBound is a conservative lower bound on the earliest cycle
	// any window entry could issue: exact after every walk that issues
	// nothing (the walk computes it for free), reset to now by a walk whose
	// issues may have made an entry ready sooner (see issue), and folded
	// down by each fill that enters the window. Both issue and NextEvent
	// answer "can anything issue?" by one compare. The bound can run slack-low — a squash may remove its
	// holder, raising the true minimum — which costs at most one extra
	// no-op scan, never a missed wakeup; see ARCHITECTURE.md "Backend:
	// dependency-driven issue wakeup" for the identity argument.
	//
	// An earlier revision of this scheduler maintained eager per-register
	// waiter lists with cached wake times, recomputed at each producer
	// issue. Measured on BenchmarkStep it lost ~15% to the linear scan:
	// consumers issue within a few cycles here, so two subscribe/unsubscribe
	// link operations per instruction port cost more than the rescans they
	// avoided. The lazy recompute below keeps the O(1) wakeup answer
	// without any per-producer bookkeeping.
	unbits  []uint64 // bit set ⇔ ROB slot holds an unissued entry
	unCount int      // unissued entries (popcount of unbits)
	// wakeBound is the earliest cycle any window entry could have ready
	// operands — conservative (never later than the truth), exact while the
	// window is operand-blocked.
	wakeBound int64

	// OnCommitRange, when set, observes the committed (correct-path)
	// instructions — the core uses it for predictor/FTB training and
	// statistics. It is called at most once per cycle with the arena range
	// of the instructions committed that cycle (first slot, count; walk
	// with Arena().At/Next — commits release the oldest live slots, so the
	// range is contiguous in allocation order): one indirect call per
	// cycle, not one per instruction, on the commit hot path.
	//
	// No-retention contract: the callback runs before the slots are
	// released, and every slot in the range is recycled after it returns.
	// Callbacks must read what they need during the call and must not
	// retain a uop pointer or rely on the pointed-to contents afterwards
	// (enforced by core.TestOnCommitPointerNotRetained).
	OnCommitRange func(first uint32, n int)

	// Committed counts architecturally retired instructions; Issued all
	// issues including wrong-path; Squashed entries discarded by
	// redirects; ROBFullCycles cycles rename stalled on a full ROB.
	Committed, Issued, Squashed uint64
	ROBFullCycles               uint64
	// MispredictsResolved counts redirects returned, by kind.
	MispredictsResolved [5]uint64
}

// dpSeg is one decode-pipe delivery: a contiguous arena range of n uops that
// all become ROB-eligible at cycle ready.
type dpSeg struct {
	first uint32
	n     int32
	ready int64
}

// New builds a backend, allocating the uop arena it shares with the fetch
// engine (Arena). All backing arrays are fixed-size, so steady-state
// delivery never allocates. The configuration is taken as given: every
// count positive, DecodeLatency at least 0 (core.Config.Validate ensures
// it).
func New(cfg Config) *Backend {
	b := &Backend{
		cfg:       cfg,
		ar:        pipe.NewArena(cfg.PipeCap + cfg.ROBSize + 8),
		robEnt:    make([]uint64, cfg.ROBSize),
		robIssued: make([]bool, cfg.ROBSize),
		robDone:   make([]int64, cfg.ROBSize),
		dpSegs:    make([]dpSeg, cfg.PipeCap),
		unbits:    make([]uint64, (cfg.ROBSize+63)/64),
	}
	b.schedReset()
	return b
}

// schedReset restores the wakeup scheduler's pristine empty state, retaining
// every backing array: an empty unissued bitmap and no wake bound. The
// per-slot operand words live in robEnt, which fill rewrites before a slot
// becomes live, so they need no clearing.
func (b *Backend) schedReset() {
	for i := range b.unbits {
		b.unbits[i] = 0
	}
	b.unCount = 0
	b.wakeBound = math.MaxInt64
}

// Arena returns the uop arena the fetch engine allocates into. It is sized
// to the maximum in-flight uop count (decode pipe capacity + ROB size +
// slack), which the backend's own backpressure (Accept) enforces.
func (b *Backend) Arena() *pipe.Arena { return b.ar }

// Reset restores the pristine just-constructed state: an empty ROB and
// decode pipe, an empty uop arena, a clean scoreboard, no pending
// misprediction, and counters zeroed, retaining every backing array (stale
// ROB and arena slots are unobservable — fill rewrites a ROB slot completely
// before count makes it live, and the fetch delivery loop assigns every
// arena field). The
// OnCommitRange hook persists; owners that rebind it per run may do so
// after Reset.
func (b *Backend) Reset() {
	b.ar.Reset()
	b.head = 0
	b.count = 0
	b.regReady = [isa.NumRegs]int64{}
	b.dpSegHd = 0
	b.dpSegCnt = 0
	b.dpCount = 0
	b.missPresent = false
	b.missIssued = false
	b.missDone = 0
	b.missIdx = 0
	b.schedReset()
	b.Committed, b.Issued, b.Squashed = 0, 0, 0
	b.ROBFullCycles = 0
	b.MispredictsResolved = [5]uint64{}
}

// Accept returns how many instructions the decode pipe can take this cycle.
func (b *Backend) Accept() int { return b.cfg.PipeCap - b.dpCount }

// ROBOccupancy returns the live ROB entry count.
func (b *Backend) ROBOccupancy() int { return b.count }

// Deliver accepts a contiguous arena range of n fetched uops starting at
// slot first into the decode pipe at cycle now. The uops were written once,
// in place, by the fetch engine; from here on only the range's (first, n)
// coordinates move — one segment push, O(1) whatever the batch size.
func (b *Backend) Deliver(first uint32, n int, now int64) {
	if n <= 0 {
		return
	}
	tail := b.dpSegHd + b.dpSegCnt
	if tail >= len(b.dpSegs) {
		tail -= len(b.dpSegs)
	}
	b.dpSegs[tail] = dpSeg{first: first, n: int32(n), ready: now + int64(b.cfg.DecodeLatency)}
	b.dpSegCnt++
	b.dpCount += n
}

// Tick advances one cycle. It returns the resolved misprediction to redirect
// on, or nil; the backend has already squashed its own younger work, and the
// caller must repair the front end (FTQ, BPU, prefetcher). The returned
// pointer aliases the resolved branch's arena slot — the branch survives its
// own squash and stays live at least until it commits, so the pointer is
// valid until the next Tick — a pointer rather than a value so the per-cycle
// hot path never copies a uop.
func (b *Backend) Tick(now int64) *pipe.Uop {
	b.fill(now)
	redirect := b.resolve(now)
	b.commit(now)
	b.issue(now)
	return redirect
}

// idx wraps a ROB position into [0, ROBSize). Positions exceed the size by
// at most one lap, so a conditional subtract replaces the modulo the hot
// loops would otherwise pay for.
func (b *Backend) idx(i int) int {
	if i >= b.cfg.ROBSize {
		i -= b.cfg.ROBSize
	}
	return i
}

// NextEvent returns the earliest cycle, at or after now, at which Tick could
// change backend state or counters: a decoded instruction reaching the ROB
// (or stalling on a full one), the pending misprediction resolving, the ROB
// head becoming committable, or any scheduler-window entry's operands turning
// ready. A return equal to now means the backend is active this cycle;
// math.MaxInt64 means it is fully drained. The core's cycle-skip scheduler
// relies on the guarantee that Tick is a pure no-op strictly before the
// returned cycle, provided no new uops are delivered in between.
func (b *Backend) NextEvent(now int64) int64 {
	next := int64(math.MaxInt64)
	if b.dpSegCnt > 0 {
		r := b.dpSegs[b.dpSegHd].ready
		if r <= now {
			return now // fill moves an entry or counts a ROB-full stall
		}
		next = r
	}
	if b.missPresent && b.missIssued {
		if b.missDone <= now {
			return now
		}
		if b.missDone < next {
			next = b.missDone
		}
	}
	if b.count > 0 {
		if b.robIssued[b.head] {
			if b.robDone[b.head] <= now {
				return now // head commits this cycle
			}
			if b.robDone[b.head] < next {
				next = b.robDone[b.head]
			}
		}
		if w := b.windowReadyAt(now); w <= now {
			return now // an entry could issue this cycle
		} else if w < next {
			next = w
		}
	}
	return next
}

// windowReadyAt returns the earliest cycle any unissued entry in the
// scheduler window could have ready operands: now when one is ready this
// cycle, math.MaxInt64 when the window holds none. It answers from
// wakeBound — an O(1) read. The bound is conservative, so this may report
// an earlier cycle than the true window minimum (the extra cycle steps
// through a no-op Tick whose walk then tightens the bound); it never reports
// a later one, which is what NextEvent's contract requires.
func (b *Backend) windowReadyAt(now int64) int64 {
	if b.wakeBound <= now {
		return now
	}
	return b.wakeBound
}

// fill moves decoded instructions into the ROB, consuming whole delivery
// segments front to back (a segment's uops share one ready cycle, and
// segments are FIFO in both delivery and decode order).
func (b *Backend) fill(now int64) {
	for b.dpSegCnt > 0 {
		s := &b.dpSegs[b.dpSegHd]
		if s.ready > now {
			return
		}
		for s.n > 0 {
			if b.count == b.cfg.ROBSize {
				b.ROBFullCycles++
				return
			}
			slot := b.idx(b.head + b.count)
			ai := s.first
			u := b.ar.At(ai)
			b.robEnt[slot] = uint64(ai) | uint64(u.Sched)<<32
			b.robIssued[slot] = false
			// robDone is read only behind robIssued, so the stale value
			// needs no clearing; issue rewrites it.
			b.count++
			b.schedInsert(int32(slot), u.Sched, now)
			s.first = b.ar.Next(ai)
			s.n--
			b.dpCount--
			if u.Mispredicted {
				if b.missPresent {
					panic(fmt.Sprintf("backend: second in-flight mispredict (seq %d after %d)", u.Seq, b.ar.At(b.missIdx).Seq))
				}
				b.missPresent = true
				b.missIssued = false
				b.missIdx = ai
			}
		}
		b.dpSegHd++
		if b.dpSegHd == len(b.dpSegs) {
			b.dpSegHd = 0
		}
		b.dpSegCnt--
	}
}

// resolve fires the pending misprediction once it has executed, squashing
// everything younger immediately so the same cycle's commit/issue never see
// dead work.
func (b *Backend) resolve(now int64) *pipe.Uop {
	if b.missPresent && b.missIssued && b.missDone <= now {
		b.missPresent = false
		u := b.ar.At(b.missIdx)
		b.MispredictsResolved[u.MissKind]++
		b.SquashAfter(u.Seq)
		return u
	}
	return nil
}

// commit retires completed instructions in order, releasing each one's
// arena slot — the oldest live slot, since the arena allocates in fetch
// order — once the OnCommitRange observer has returned.
func (b *Backend) commit(now int64) {
	freed := 0
	var firstAI uint32
	for n := 0; n < b.cfg.CommitWidth && b.count > 0; n++ {
		if !b.robIssued[b.head] || b.robDone[b.head] > now {
			break
		}
		ai := uint32(b.robEnt[b.head])
		if freed == 0 {
			firstAI = ai
		}
		u := b.ar.At(ai)
		if !u.OnCorrectPath {
			// Wrong-path work is removed by SquashAfter, never committed;
			// reaching here means the redirect protocol was violated.
			panic(fmt.Sprintf("backend: wrong-path uop seq %d at commit head", u.Seq))
		}
		// The slot is dead but its arena entry is released in one batched
		// FreeOldest below — commits free the oldest live slots in order,
		// so deferring the release changes nothing an observer can see.
		freed++
		b.Committed++
		b.head = b.idx(b.head + 1)
		b.count--
	}
	if freed > 0 {
		if b.OnCommitRange != nil {
			b.OnCommitRange(firstAI, freed)
		}
		b.ar.FreeOldest(freed)
	}
}

// issue selects ready instructions within the scheduler window: in age
// order, up to IssueWidth of them, never past the window's current boundary.
// The wakeup scheduler proves the common case — nothing ready — from
// wakeBound without touching a single entry, and on active cycles iterates
// only the set bits of the unissued bitmap in ring age order, re-deriving
// each entry's readiness from the packed meta word and the scoreboard.
// Computing readiness at the visit, against the live regReady, is what makes
// an issue earlier in the same walk visible to its dependents later in it —
// the same same-cycle visibility a head-to-tail ROB scan has. The window
// boundary is the examined counter, which counts every visited entry
// including ones issued this walk — exactly that scan's semantics, so
// within-cycle issues do not admit replacement entries early. The scan
// itself is kept as the test-only reference in shadow_test.go.
func (b *Backend) issue(now int64) {
	if b.wakeBound > now {
		return // no window entry has ready operands this cycle
	}
	issued, examined := 0, 0
	quiet := int64(math.MaxInt64)
	complete, downgrade := true, false
	nw := len(b.unbits)
	hw := b.head >> 6
	hbit := uint(b.head) & 63
	// One full circle of words starting at the head's: the first visit
	// masks off bits below the head (they are the ring's youngest tail and
	// come last, as the wi == nw re-visit), so set bits stream in age order.
scan:
	for wi := 0; wi <= nw; wi++ {
		idx := hw + wi
		if idx >= nw {
			idx -= nw
		}
		w := b.unbits[idx]
		if wi == 0 {
			w &= ^uint64(0) << hbit
		} else if wi == nw {
			if hbit == 0 {
				break
			}
			w &= ^(^uint64(0) << hbit)
		}
		base := idx << 6
		for w != 0 {
			s := base + bits.TrailingZeros64(w)
			w &= w - 1
			ent := b.robEnt[s]
			m := uint32(ent >> 32)
			t := b.regReady[m&0xff]
			if r := b.regReady[(m>>8)&0xff]; r > t {
				t = r
			}
			if t <= now {
				b.unbits[idx] &^= 1 << (uint(s) & 63)
				b.unCount--
				b.robIssued[s] = true
				done := now + int64(m>>24)
				b.robDone[s] = done
				if d := (m >> 16) & 0xff; d != 0 {
					if done < b.regReady[d] {
						// WAW overwrite moved the register's ready
						// time earlier: a waiter visited before this
						// producer may now wake sooner than the
						// readiness folded into quiet.
						downgrade = true
					}
					b.regReady[d] = done
				}
				if b.missPresent && uint32(ent) == b.missIdx {
					b.missIssued = true
					b.missDone = done
				}
				b.Issued++
				if issued++; issued == b.cfg.IssueWidth {
					complete = false
					break scan
				}
			} else if t < quiet {
				quiet = t
			}
			if examined++; examined == b.cfg.IssueWindow {
				complete = false
				break scan
			}
		}
	}
	if issued == 0 || (complete && !downgrade) {
		// The walk visited every unissued entry (always true when nothing
		// issued: the width and window caps were never hit), so quiet is
		// the exact minimum ready time of the whole window — including the
		// effect of this cycle's issues, because program order puts every
		// producer before its consumers in the walk, and readiness is
		// re-derived from the live scoreboard at each visit. The one way an
		// issuing walk can invalidate an already-folded readiness is a WAW
		// downgrade — a younger short-latency producer pulling a register's
		// ready time earlier after a waiter on it was visited — which the
		// downgrade flag catches; every other scoreboard write only raises
		// ready times, leaving quiet conservative. Until a fill or squash
		// changes the window, no entry can issue before quiet, and busy
		// steady-state cycles skip the walk entirely.
		b.wakeBound = quiet
		return
	}
	// The walk stopped at the width or window cap (or a WAW downgrade made
	// quiet untrustworthy), so a window entry may be ready as soon as next
	// cycle: fall back to "rescan next active cycle".
	b.wakeBound = now
}

// schedInsert registers the just-filled ROB slot s with the wakeup
// scheduler: the slot's unissued bit is set, and when the entry enters the
// issue window — fewer than IssueWindow older unissued entries exist — its
// current ready time, derived from the packed scheduler word m
// (pipe.Uop.Sched, already stored in robEnt by fill), folds into wakeBound.
// The fold is skipped when wakeBound has already fired (wakeBound <= now):
// fill runs before issue in Tick, so the pending scan this same cycle
// visits the new entry and recomputes the bound itself.
func (b *Backend) schedInsert(s int32, m uint32, now int64) {
	b.unbits[s>>6] |= 1 << (uint(s) & 63)
	if b.wakeBound > now && b.unCount < b.cfg.IssueWindow {
		t := b.regReady[m&0xff]
		if r := b.regReady[(m>>8)&0xff]; r > t {
			t = r
		}
		if t < b.wakeBound {
			b.wakeBound = t
		}
	}
	b.unCount++
}

// schedRemove takes the unissued entry at ROB slot s out of the scheduler (a
// squash of an unissued entry; issue clears bits inline). wakeBound needs no
// update — removals can only raise the window's true minimum, which leaves
// the bound conservative (at worst one spurious no-op scan tightens it).
func (b *Backend) schedRemove(s int32) {
	b.unbits[s>>6] &^= 1 << (uint(s) & 63)
	b.unCount--
}

// SquashAfter removes every instruction younger than seq — ROB tail entries
// and the whole decode pipe (anything decoded after a resolving branch is
// younger by construction) — and rolls their arena slots back. The squashed
// set is exactly the arena's youngest allocated suffix: every live uop
// younger than seq sits in the ROB tail or the decode pipe, both counted
// here.
func (b *Backend) SquashAfter(seq uint64) {
	squashed := 0
	for b.count > 0 {
		tail := b.idx(b.head + b.count - 1)
		if b.ar.At(uint32(b.robEnt[tail])).Seq <= seq {
			break
		}
		if !b.robIssued[tail] {
			// An unissued squashed entry leaves the unissued bitmap so
			// later scans never visit the dead slot.
			b.schedRemove(int32(tail))
		}
		b.count--
		squashed++
	}
	squashed += b.dpCount
	b.Squashed += uint64(squashed)
	b.dpSegHd = 0
	b.dpSegCnt = 0
	b.dpCount = 0
	b.ar.FreeNewest(squashed)
	// A squashed younger mispredict cannot exist (only one correct-path
	// mispredict is ever in flight), so missPresent stays untouched unless
	// it was the resolving branch itself, which resolve() already cleared.
}
