package prefetch

import (
	"testing"

	"fdip/internal/btb"
	"fdip/internal/isa"
	"fdip/internal/program"
)

// testDecodeImage builds a synthetic image covering [0, 16KB) — the address
// range pfTrace and the unit tests touch — with a repeating instruction
// pattern that gives the shadow decoder direct CTIs, an indirect, and plain
// ALU filler on every line.
func testDecodeImage() *program.Image {
	const n = 1 << 12 // 4096 instructions = 16KB at 4B each
	code := make([]isa.Instr, n)
	var behav []program.Branch
	for i := range code {
		switch i % 7 {
		case 2:
			code[i] = isa.Instr{Kind: isa.CondBranch, Target: uint64((i*37)%n) * isa.InstrBytes}
			behav = append(behav, program.Branch{Word: i, Behavior: program.Behavior{Model: program.ModelBiased, TakenProb: 0.5}})
		case 5:
			code[i] = isa.Instr{Kind: isa.Jump, Target: uint64((i*53+9)%n) * isa.InstrBytes}
		case 6:
			if i%3 == 0 {
				code[i] = isa.Instr{Kind: isa.Ret}
			} else {
				code[i] = isa.Instr{Kind: isa.ALU}
			}
		default:
			code[i] = isa.Instr{Kind: isa.ALU}
		}
	}
	return &program.Image{Base: 0, Code: code, Behav: behav, Entry: 0}
}

// testModernEnv is testEnv plus the structures the shadow decoder needs: an
// FTB and a ground-truth image provider.
func testModernEnv() Env {
	env := testEnv()
	env.FTB = btb.New(btb.Config{Sets: 64, Ways: 2, BlockOriented: true, MaxBlockInstrs: 8, AddrBits: 48})
	im := testDecodeImage()
	env.Image = func() *program.Image { return im }
	return env
}

// Records returns the table's record capacity under the budget.
func (m *MANA) Records() int { return len(m.sets) * len(m.sets[0]) }

func TestMANATrainsAndReplays(t *testing.T) {
	env := testEnv()
	m := NewMANA(env, MANAConfig{BudgetBytes: 512, RegionLines: 8, QueueSize: 8})

	// A spatial region: trigger 0x1000, then +1 and +2 lines, all misses.
	m.OnDemandAccess(0x1000, false, false, 0)
	m.OnDemandAccess(0x1020, false, false, 1)
	m.OnDemandAccess(0x1040, false, false, 2)
	// A far access closes and commits the region.
	m.OnDemandAccess(0x9000, false, false, 3)
	if m.RegionsCommitted != 1 {
		t.Fatalf("RegionsCommitted = %d, want 1", m.RegionsCommitted)
	}

	// Re-triggering the recorded trigger replays the footprint.
	m.OnDemandAccess(0x1000, false, false, 10)
	if m.RecordHits != 1 {
		t.Fatalf("RecordHits = %d, want 1", m.RecordHits)
	}
	m.Tick(10)
	if !env.Hier.Inflight(0x1020) {
		t.Error("footprint line 0x1020 not prefetched")
	}
	m.Tick(14) // next idle bus slot
	if !env.Hier.Inflight(0x1040) {
		t.Error("footprint line 0x1040 not prefetched")
	}
	if got := m.IssueStats().Issued; got != 2 {
		t.Errorf("Issued = %d, want 2", got)
	}
}

func TestMANAHitsDoNotTrigger(t *testing.T) {
	env := testEnv()
	m := NewMANA(env, MANAConfig{BudgetBytes: 512, RegionLines: 8, QueueSize: 8})
	m.OnDemandAccess(0x1000, false, false, 0)
	m.OnDemandAccess(0x1020, false, false, 1)
	m.OnDemandAccess(0x9000, false, false, 2) // commit {0x1000: +1}
	// An L1 hit on the trigger still trains but must not replay.
	m.OnDemandAccess(0x1000, true, false, 3)
	if m.RecordHits != 0 {
		t.Errorf("L1 hit replayed a region: RecordHits = %d", m.RecordHits)
	}
	// A prefetch-buffer first use is part of the miss stream and replays.
	m.OnDemandAccess(0x9000, false, false, 4) // re-anchor away
	m.OnDemandAccess(0x1000, false, true, 5)
	if m.RecordHits != 1 {
		t.Errorf("PFB first use did not replay: RecordHits = %d", m.RecordHits)
	}
}

func TestMANASameLineRunsDedup(t *testing.T) {
	env := testEnv()
	m := NewMANA(env, MANAConfig{BudgetBytes: 512, RegionLines: 8, QueueSize: 8})
	for i := 0; i < 5; i++ {
		m.OnDemandAccess(0x1000, false, false, int64(i))
	}
	if m.Triggers != 1 {
		t.Errorf("Triggers = %d, want 1 (per-cycle re-reads of one line)", m.Triggers)
	}
}

func TestMANABudgetSizesTable(t *testing.T) {
	env := testEnv()
	small := NewMANA(env, MANAConfig{BudgetBytes: 16, RegionLines: 8, QueueSize: 4})
	big := NewMANA(env, MANAConfig{BudgetBytes: 4096, RegionLines: 8, QueueSize: 4})
	if small.Records() >= big.Records() {
		t.Fatalf("budget knob inert: %d records at 16B vs %d at 4KB", small.Records(), big.Records())
	}
	// Widening regions under a fixed budget costs records.
	wide := NewMANA(env, MANAConfig{BudgetBytes: 4096, RegionLines: 64, QueueSize: 4})
	if wide.Records() > big.Records() {
		t.Errorf("wider regions yielded more records: %d vs %d", wide.Records(), big.Records())
	}
	if got, want := (MANAConfig{BudgetBytes: 1, RegionLines: 8, QueueSize: 1}).RecordBits(), manaTagBits+7; got != want {
		t.Errorf("RecordBits = %d, want %d", got, want)
	}
}

func TestMANAQueueOverflow(t *testing.T) {
	env := testEnv()
	m := NewMANA(env, MANAConfig{BudgetBytes: 512, RegionLines: 16, QueueSize: 2})
	// Record a footprint with 4 lines, then replay into a 2-entry queue.
	m.OnDemandAccess(0x1000, false, false, 0)
	for i := 1; i <= 4; i++ {
		m.OnDemandAccess(0x1000+uint64(i)*0x20, false, false, int64(i))
	}
	m.OnDemandAccess(0x9000, false, false, 5) // commit
	env.Hier.Request(0xa000, false, 6)        // keep the bus busy
	m.OnDemandAccess(0x1000, false, false, 6)
	if m.PendingDrops != 2 {
		t.Errorf("PendingDrops = %d, want 2", m.PendingDrops)
	}
}

func TestShadowDecodesAndPrefills(t *testing.T) {
	env := testModernEnv()
	s := NewShadow(env, ShadowConfig{DecodeQueue: 4, TargetQueue: 8, PrefetchTargets: true})

	// Line 0 holds: CondBranch at 0x8 (block [0x0..0x8]), Jump at 0x14
	// (block [0xC..0x14]), Ret at 0x18 (indirect, skipped).
	s.OnDemandAccess(0, false, false, 0)
	s.Tick(0)
	if s.LinesDecoded != 1 || s.Prefills != 2 || s.IndirectSkipped != 1 {
		t.Fatalf("decoded=%d prefills=%d indirect=%d, want 1/2/1",
			s.LinesDecoded, s.Prefills, s.IndirectSkipped)
	}
	if !env.FTB.Peek(0x0) || !env.FTB.Peek(0xC) {
		t.Error("FTB not prefilled with the discovered blocks")
	}
	// Discovered targets are prefetched through the port: the CondBranch
	// target line first, the Jump's on the next idle bus slot.
	if !env.Hier.Inflight(0x120) {
		t.Error("first target line not prefetched")
	}
	s.Tick(4)
	if !env.Hier.Inflight(0x440) {
		t.Error("second target line not prefetched")
	}
}

func TestShadowSkipsKnownBlocks(t *testing.T) {
	env := testModernEnv()
	s := NewShadow(env, ShadowConfig{DecodeQueue: 4, TargetQueue: 8})
	env.FTB.TrainBlock(0x0, 3, isa.CondBranch, 0x128) // BPU already knows it
	inserts := env.FTB.Inserts
	s.OnDemandAccess(0, false, false, 0)
	s.Tick(0)
	if s.AlreadyKnown != 1 {
		t.Errorf("AlreadyKnown = %d, want 1", s.AlreadyKnown)
	}
	if s.Prefills != 1 { // only the Jump block is new
		t.Errorf("Prefills = %d, want 1", s.Prefills)
	}
	if env.FTB.Inserts != inserts+1 {
		t.Errorf("FTB Inserts moved by %d, want 1", env.FTB.Inserts-inserts)
	}
}

func TestShadowHitsDoNotEnqueue(t *testing.T) {
	env := testModernEnv()
	s := NewShadow(env, ShadowConfig{DecodeQueue: 4, TargetQueue: 8})
	s.OnDemandAccess(0x1000, true, false, 0) // resident line: decoded long ago
	s.Tick(0)
	if s.LinesDecoded != 0 {
		t.Errorf("decoded a resident line")
	}
	// A prefetched line's first use does arrive and is decoded.
	s.OnDemandAccess(0x1000, false, true, 1)
	s.Tick(1)
	if s.LinesDecoded != 1 {
		t.Errorf("PFB first use not decoded")
	}
}

func TestShadowDecodeQueueBounds(t *testing.T) {
	env := testModernEnv()
	s := NewShadow(env, ShadowConfig{DecodeQueue: 2, TargetQueue: 4})
	for i := 0; i < 4; i++ {
		s.OnDemandAccess(uint64(i)*0x20, false, false, 0)
	}
	if s.DecodeDrops != 2 {
		t.Errorf("DecodeDrops = %d, want 2", s.DecodeDrops)
	}
	s.OnDemandAccess(0x0, false, false, 0) // duplicate of a queued line
	if s.DecodeDrops != 2 {
		t.Errorf("duplicate counted as drop")
	}
}

// TestModernIdle pins the scheduler contract of both modern engines: an
// empty queue is idle, a replayed region or a deferring target head is busy,
// and a populated decode queue keeps the shadow engine busy.
func TestModernIdle(t *testing.T) {
	env := testEnv()
	m := NewMANA(env, MANAConfig{BudgetBytes: 512, RegionLines: 8, QueueSize: 4})
	if !m.Idle() {
		t.Error("fresh MANA not idle")
	}
	// Record and replay a region with the bus busy: the head defers.
	m.OnDemandAccess(0x1000, false, false, 0)
	m.OnDemandAccess(0x1020, false, false, 1)
	m.OnDemandAccess(0x9000, false, false, 2)
	env.Hier.Request(0xa000, false, 3) // bus busy until 3+4
	m.OnDemandAccess(0x1000, false, false, 3)
	if m.Idle() {
		t.Error("MANA with a replayed region claims idle")
	}

	senv := testModernEnv()
	s := NewShadow(senv, ShadowConfig{DecodeQueue: 4, TargetQueue: 4, PrefetchTargets: true})
	if !s.Idle() {
		t.Error("fresh Shadow not idle")
	}
	s.OnDemandAccess(0, false, false, 0)
	if s.Idle() {
		t.Error("Shadow with a line to decode claims idle")
	}
	senv.Hier.Request(0xa000, false, 0) // bus busy
	s.Tick(0)                           // decode drains; targets remain
	if s.IssueStats().DeferredBusBusy == 0 {
		t.Fatal("decoded line queued no deferred target")
	}
	if s.Idle() {
		t.Error("Shadow with a deferred target claims idle")
	}
}

func TestShadowRequiresFTBAndImage(t *testing.T) {
	env := testModernEnv()
	env.FTB = nil
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Shadow without FTB did not panic")
			}
		}()
		NewShadow(env, DefaultShadowConfig())
	}()
	env = testModernEnv()
	env.Image = nil
	defer func() {
		if recover() == nil {
			t.Error("Shadow without image provider did not panic")
		}
	}()
	NewShadow(env, DefaultShadowConfig())
}
