package backend

import (
	"math"
	"math/rand"
	"testing"

	"fdip/internal/isa"
	"fdip/internal/pipe"
)

// The wakeup scheduler's contract is bit-identity with a linear scan of the
// ROB: same issue selections in the same order, same counters, same
// redirects, same architectural end state — the bitmap and the wake bound
// are allowed to change only *when* issue looks, never *what* it picks. The
// shadow-model test here drives the production backend and scanBackend, the
// scan reference, through identical randomized delivery/tick/squash/reset
// sequences over randomized configurations and compares every observable
// (and the issue-relevant internals, which this package can see) after
// every cycle.

// scanBackend is the definition-level reference scheduler: it shares the
// production fill, resolve, commit and squash stages and replaces only
// issue selection and the window's wakeup time with a plain scan — no
// memo, no skipped prefix, operands and latency decoded from the uop's
// Instr rather than the packed scheduler word.
type scanBackend struct{ *Backend }

// Tick mirrors Backend.Tick with issueScan in place of issue.
func (s scanBackend) Tick(now int64) *pipe.Uop {
	s.fill(now)
	redirect := s.resolve(now)
	s.commit(now)
	s.issueScan(now)
	return redirect
}

// readyAt returns the cycle the instruction's operands turn ready, never
// earlier than now. Register 0 and NoReg are always ready.
func (s scanBackend) readyAt(ins *isa.Instr, now int64) int64 {
	t := now
	if r := ins.Src1; r != isa.NoReg && r != 0 && s.regReady[r] > t {
		t = s.regReady[r]
	}
	if r := ins.Src2; r != isa.NoReg && r != 0 && s.regReady[r] > t {
		t = s.regReady[r]
	}
	return t
}

// issueScan walks the ROB from head in age order, visits up to IssueWindow
// unissued entries, and issues each whose operands are ready at the visit,
// stopping after IssueWidth issues. It clears each issued entry's unissued
// bit so the shared squash path sees a consistent bitmap.
func (s scanBackend) issueScan(now int64) {
	issued, examined := 0, 0
	for i := 0; i < s.count && issued < s.cfg.IssueWidth && examined < s.cfg.IssueWindow; i++ {
		slot := s.idx(s.head + i)
		if s.robIssued[slot] {
			continue
		}
		examined++
		ai := uint32(s.robEnt[slot])
		u := s.ar.At(ai)
		if s.readyAt(&u.Instr, now) > now {
			continue
		}
		s.schedRemove(int32(slot))
		s.robIssued[slot] = true
		done := now + int64(u.Instr.Kind.Latency())
		s.robDone[slot] = done
		if d := u.Instr.Dst; d != isa.NoReg && d != 0 {
			s.regReady[d] = done
		}
		if s.missPresent && ai == s.missIdx {
			s.missIssued = true
			s.missDone = done
		}
		s.Issued++
		issued++
	}
}

// NextEvent stores the scan's exact window minimum — the earliest operand
// ready time over the first IssueWindow unissued entries — in wakeBound,
// then answers through the production NextEvent.
func (s scanBackend) NextEvent(now int64) int64 {
	next := int64(math.MaxInt64)
	examined := 0
	for i := 0; i < s.count && examined < s.cfg.IssueWindow; i++ {
		slot := s.idx(s.head + i)
		if s.robIssued[slot] {
			continue
		}
		examined++
		if t := s.readyAt(&s.ar.At(uint32(s.robEnt[slot])).Instr, now); t < next {
			next = t
		}
	}
	s.wakeBound = next
	return s.Backend.NextEvent(now)
}

// shadowGen produces the shared uop sequence. It models the front end's
// protocol obligations: sequence numbers rise monotonically, at most one
// correct-path mispredict is in flight, and once a mispredict is delivered
// everything younger is wrong-path until the backend resolves it.
type shadowGen struct {
	rng      *rand.Rand
	seq      uint64
	diverged bool
}

var shadowKinds = []isa.Kind{
	isa.Nop, isa.ALU, isa.ALU, isa.ALU, isa.Mul, isa.Load, isa.Store, isa.FPU,
}

// next builds one uop. Operands draw from a small register pool so RAW, WAW,
// and same-cycle producer→consumer chains are dense, and r0/NoReg corners
// appear regularly.
func (g *shadowGen) next() pipe.Uop {
	reg := func() uint8 {
		switch g.rng.Intn(8) {
		case 0:
			return isa.NoReg
		case 1:
			return 0 // hardwired zero: never blocks, writes ignored
		default:
			return uint8(1 + g.rng.Intn(6))
		}
	}
	u := pipe.Uop{
		Seq: g.seq,
		PC:  0x1000 + g.seq*4,
		Instr: isa.Instr{
			Kind: shadowKinds[g.rng.Intn(len(shadowKinds))],
			Dst:  reg(), Src1: reg(), Src2: reg(),
		},
		OnCorrectPath: !g.diverged,
	}
	if !g.diverged && g.rng.Intn(12) == 0 {
		// A mispredicted branch: everything after it is wrong-path until
		// the backend resolves it and the redirect "repairs" the stream.
		u.Instr.Kind = isa.CondBranch
		u.Mispredicted = true
		u.MissKind = pipe.MispredictKind(1 + g.rng.Intn(4))
		u.ActualNextPC = 0x9000 + g.seq*4
		g.diverged = true
	}
	g.seq++
	return u
}

// deliverBoth writes the same uop values into both backends' arenas and
// hands each the range, mirroring the fetch engine's single-write protocol.
func deliverBoth(w, s *Backend, uops []pipe.Uop, now int64) {
	for _, b := range []*Backend{w, s} {
		var first uint32
		for i, u := range uops {
			idx, slot := b.Arena().Alloc()
			*slot = u
			slot.Sched = slot.Instr.SchedPack()
			if i == 0 {
				first = idx
			}
		}
		b.Deliver(first, len(uops), now)
	}
}

// requireSameState compares everything the scan and wakeup backends must
// agree on: public counters and occupancy, plus the per-slot ROB state and
// the scoreboard (same package, so the internals are comparable directly).
func requireSameState(t *testing.T, w, s *Backend, seed, now int64) {
	t.Helper()
	fail := func(what string) {
		t.Fatalf("seed %d cycle %d: backends disagree on %s", seed, now, what)
	}
	if w.Issued != s.Issued || w.Committed != s.Committed || w.Squashed != s.Squashed {
		fail("counters")
	}
	if w.ROBFullCycles != s.ROBFullCycles || w.MispredictsResolved != s.MispredictsResolved {
		fail("stall/mispredict counters")
	}
	if w.ROBOccupancy() != s.ROBOccupancy() || w.Accept() != s.Accept() || w.Drained() != s.Drained() {
		fail("occupancy")
	}
	if w.head != s.head {
		fail("ROB geometry")
	}
	if w.regReady != s.regReady {
		fail("scoreboard")
	}
	for i := 0; i < w.count; i++ {
		slot := w.idx(w.head + i)
		if w.robEnt[slot] != s.robEnt[slot] || w.robIssued[slot] != s.robIssued[slot] {
			fail("ROB entry")
		}
		if w.robIssued[slot] && w.robDone[slot] != s.robDone[slot] {
			fail("completion time")
		}
	}
}

// TestShadowModelWakeupMatchesScan is the property test: randomized
// configurations, randomized fill/issue/squash/commit/Reset sequences, and
// after every cycle the wakeup backend must be indistinguishable from the
// linear-scan reference. NextEvent may differ — the wakeup bound is
// conservative — but only downward, and never when the scan says the backend
// is active this cycle.
func TestShadowModelWakeupMatchesScan(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		shadowTrial(t, seed)
	}
}

// FuzzShadowScheduler explores the shadow-model property beyond the fixed
// seeds; the seed corpus replays the property test's trials.
func FuzzShadowScheduler(f *testing.F) {
	for seed := int64(0); seed < 40; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { shadowTrial(t, seed) })
}

// shadowTrial runs one randomized lockstep trial of the wakeup backend
// against scanBackend, with the configuration and operation sequence drawn
// from seed.
func shadowTrial(t *testing.T, seed int64) {
	t.Helper()
	pick := func(rng *rand.Rand, vs ...int) int { return vs[rng.Intn(len(vs))] }
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{
		ROBSize:       pick(rng, 4, 8, 16, 32),
		IssueWidth:    pick(rng, 1, 2, 4),
		CommitWidth:   pick(rng, 1, 2, 4),
		IssueWindow:   pick(rng, 2, 4, 8, 16),
		DecodeLatency: rng.Intn(4),
		PipeCap:       pick(rng, 4, 8, 16),
	}
	w := New(cfg)
	s := scanBackend{New(cfg)}
	gen := &shadowGen{rng: rng}

	now := int64(0)
	for step := 0; step < 400; step++ {
		if rng.Intn(60) == 0 {
			w.Reset()
			s.Reset()
			gen.diverged = false
		}
		if accept := w.Accept(); accept > 0 && rng.Intn(4) != 0 {
			n := 1 + rng.Intn(min(accept, 4))
			uops := make([]pipe.Uop, n)
			for i := range uops {
				uops[i] = gen.next()
			}
			deliverBoth(w, s.Backend, uops, now)
		}
		rw := w.Tick(now)
		rs := s.Tick(now)
		if (rw == nil) != (rs == nil) {
			t.Fatalf("seed %d cycle %d: redirect disagreement (wakeup %v, scan %v)", seed, now, rw, rs)
		}
		if rw != nil {
			if rw.Seq != rs.Seq || rw.ActualNextPC != rs.ActualNextPC || rw.MissKind != rs.MissKind {
				t.Fatalf("seed %d cycle %d: redirects differ: wakeup %+v scan %+v", seed, now, *rw, *rs)
			}
			gen.diverged = false
		}
		requireSameState(t, w, s.Backend, seed, now)

		ew, es := w.NextEvent(now+1), s.NextEvent(now+1)
		if ew > es {
			t.Fatalf("seed %d cycle %d: wakeup NextEvent %d later than scan %d", seed, now, ew, es)
		}
		if es == now+1 && ew != es {
			t.Fatalf("seed %d cycle %d: scan is active next cycle but wakeup sleeps until %d", seed, now, ew)
		}
		// Occasionally skip idle stretches the way the core's scheduler
		// does, using the (earlier, conservative) wakeup bound — Tick
		// must be a no-op on the skipped cycles for both models, so the
		// lockstep comparison survives the jump.
		if d := ew - (now + 1); d > 0 && d < 1000 && rng.Intn(2) == 0 {
			now = ew - 1
		}
		now++
	}

	// Drain: no new deliveries, run both dry and compare the end state.
	for spin := 0; !w.Drained() || !s.Drained(); spin++ {
		if spin > 10000 {
			t.Fatalf("seed %d: backends failed to drain", seed)
		}
		rw, rs := w.Tick(now), s.Tick(now)
		if (rw == nil) != (rs == nil) {
			t.Fatalf("seed %d drain cycle %d: redirect disagreement", seed, now)
		}
		requireSameState(t, w, s.Backend, seed, now)
		now++
	}
}

// TestSchedulerStateSurvivesReset is the scheduler-structure Reset
// differential: a backend abandoned with a populated wakeup window — blocked
// waiters in the unissued bitmap, a wake bound parked in the future — is
// Reset and then driven through a uop sequence in lockstep with a fresh
// backend. Any scheduler state leaking across Reset (a stale unissued bit, a
// stale bound suppressing the first scan) diverges the pair immediately.
func TestSchedulerStateSurvivesReset(t *testing.T) {
	cfg := Config{ROBSize: 16, IssueWidth: 2, CommitWidth: 2, IssueWindow: 8, DecodeLatency: 1, PipeCap: 8}
	dirty := New(cfg)

	// Dirty: a long-latency producer with a tail of dependent consumers,
	// abandoned mid-flight so the consumers are still operand-blocked.
	prod := mkUop(0, isa.Mul)
	prod.Instr.Dst = 5
	chain := []pipe.Uop{prod}
	for i := uint64(1); i < 6; i++ {
		c := mkUop(i, isa.ALU)
		c.Instr.Src1 = 5
		c.Instr.Dst = uint8(10 + i)
		chain = append(chain, c)
	}
	deliver(dirty, chain, 0)
	dirty.Tick(1) // fill + issue the producer; consumers block on r5
	if dirty.unCount == 0 {
		t.Fatal("dirtying failed: no blocked entries in the wakeup window")
	}
	if dirty.wakeBound <= 1 {
		t.Fatalf("dirtying failed: wakeBound %d not parked in the future", dirty.wakeBound)
	}
	dirty.Reset()

	// Replay an unrelated sequence on the reset machine and a fresh one.
	fresh := New(cfg)
	gen := &shadowGen{rng: rand.New(rand.NewSource(99))}
	now := int64(0)
	for step := 0; step < 200; step++ {
		if accept := fresh.Accept(); accept > 0 && gen.rng.Intn(3) != 0 {
			n := 1 + gen.rng.Intn(min(accept, 4))
			uops := make([]pipe.Uop, n)
			for i := range uops {
				uops[i] = gen.next()
			}
			deliverBoth(dirty, fresh, uops, now)
		}
		rd, rf := dirty.Tick(now), fresh.Tick(now)
		if (rd == nil) != (rf == nil) {
			t.Fatalf("cycle %d: redirect disagreement after Reset", now)
		}
		if rd != nil {
			gen.diverged = false
		}
		requireSameState(t, dirty, fresh, 0, now)
		if dirty.wakeBound != fresh.wakeBound || dirty.unCount != fresh.unCount {
			t.Fatalf("cycle %d: scheduler state differs after Reset (wakeBound %d vs %d, unCount %d vs %d)",
				now, dirty.wakeBound, fresh.wakeBound, dirty.unCount, fresh.unCount)
		}
		now++
	}
}
