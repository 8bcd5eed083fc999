package prefetch

import (
	"testing"

	"fdip/internal/cache"
	"fdip/internal/ftq"
	"fdip/internal/memsys"
)

// testEnv builds a small but realistic environment: 1KB 2-way L1-I with 2
// tag ports, 8-entry prefetch buffer, fast L2.
func testEnv() Env {
	l1 := cache.New(cache.Config{SizeBytes: 1024, Ways: 2, LineBytes: 32, TagPorts: 2})
	pfb := cache.NewPrefetchBuffer(8, 32)
	h := memsys.New(memsys.Config{
		LineBytes: 32, L2SizeBytes: 1 << 16, L2Ways: 4,
		L2HitLatency: 8, MemLatency: 40, BusCyclesPerLine: 4,
	})
	q := ftq.New(8, 32)
	return Env{L1I: l1, PFB: pfb, Hier: h, FTQ: q, LineBytes: 32}
}

// drain completes all outstanding transfers, filling the PFB with prefetches.
func drain(env Env, now int64) {
	env.Hier.DrainCompleted(now+1000, func(tr *memsys.Transfer) {
		if tr.Prefetch && !tr.DemandMerged {
			env.PFB.Insert(tr.Line)
		}
	})
}

// ActiveStreams reports how many streams are live.
func (s *StreamBuffers) ActiveStreams() int {
	n := 0
	for i := range s.streams {
		if s.streams[i].valid {
			n++
		}
	}
	return n
}

func TestNonePrefetcherIsInert(t *testing.T) {
	env := testEnv()
	n := NewNone()
	n.OnDemandAccess(0x1000, false, false, 0)
	n.Tick(0)
	n.OnSquash()
	if env.Hier.PrefetchRequests != 0 {
		t.Error("none prefetcher issued")
	}
	if n.IssueStats() != (PortStats{}) {
		t.Error("none prefetcher has stats")
	}
	if n.Name() != "none" {
		t.Error("bad name")
	}
	if !n.Idle() {
		t.Error("none prefetcher not idle")
	}
}

func TestNextLineTriggersOnMiss(t *testing.T) {
	env := testEnv()
	n := NewNextLine(env, 4)
	n.OnDemandAccess(0x1000, false, false, 0)
	n.Tick(0)
	if got := n.IssueStats().Issued; got != 1 {
		t.Fatalf("Issued = %d", got)
	}
	if !env.Hier.Inflight(0x1020) {
		t.Error("next line 0x1020 not requested")
	}
}

func TestNextLineTriggersOnPFBFirstUse(t *testing.T) {
	env := testEnv()
	n := NewNextLine(env, 4)
	n.OnDemandAccess(0x1020, false, true, 0) // prefetch-buffer hit
	n.Tick(0)
	if !env.Hier.Inflight(0x1040) {
		t.Error("tagged trigger did not fire")
	}
	// Plain cache hit must NOT trigger.
	n.OnDemandAccess(0x2000, true, false, 5)
	if n.Triggers != 1 {
		t.Errorf("Triggers = %d", n.Triggers)
	}
}

func TestNextLineWaitsForIdleBus(t *testing.T) {
	env := testEnv()
	n := NewNextLine(env, 4)
	env.Hier.Request(0x9000, false, 0) // bus busy until cycle 4
	n.OnDemandAccess(0x1000, false, false, 0)
	n.Tick(1)
	if n.IssueStats().Issued != 0 {
		t.Error("issued into busy bus")
	}
	n.Tick(4)
	if n.IssueStats().Issued != 1 {
		t.Error("did not issue when bus freed")
	}
}

func TestNextLinePendingOverflow(t *testing.T) {
	env := testEnv()
	n := NewNextLine(env, 2)
	env.Hier.Request(0x9000, false, 0) // keep bus busy
	for i := 0; i < 5; i++ {
		n.OnDemandAccess(uint64(0x1000+i*0x100), false, false, 0)
	}
	if n.PendingDrops != 3 {
		t.Errorf("PendingDrops = %d", n.PendingDrops)
	}
}

func TestStreamBufferAllocatesAndRuns(t *testing.T) {
	env := testEnv()
	s := NewStreamBuffers(env, 2, 4)
	s.OnDemandAccess(0x1000, false, false, 0)
	if s.Allocations != 1 || s.ActiveStreams() != 1 {
		t.Fatalf("alloc=%d active=%d", s.Allocations, s.ActiveStreams())
	}
	// Run several cycles; each idle-bus cycle issues the next stream line.
	now := int64(0)
	for i := 0; i < 40; i++ {
		s.Tick(now)
		now += 4 // bus slot
	}
	st := s.IssueStats()
	if st.Issued != 4 { // depth-limited
		t.Errorf("Issued = %d, want 4 (depth)", st.Issued)
	}
	if !env.Hier.Inflight(0x1020) && !env.PFB.Contains(0x1020) {
		drain(env, now)
		if !env.PFB.Contains(0x1020) {
			t.Error("first streamed line missing")
		}
	}
}

func TestStreamBufferAdvanceRefreshesCredit(t *testing.T) {
	env := testEnv()
	s := NewStreamBuffers(env, 1, 2)
	s.OnDemandAccess(0x1000, false, false, 0)
	now := int64(0)
	for i := 0; i < 10; i++ {
		s.Tick(now)
		now += 4
	}
	if s.IssueStats().Issued != 2 {
		t.Fatalf("Issued = %d", s.IssueStats().Issued)
	}
	// First use of streamed line 0x1020 advances the stream.
	s.OnDemandAccess(0x1020, false, true, now)
	if s.Advances != 1 {
		t.Fatalf("Advances = %d", s.Advances)
	}
	for i := 0; i < 10; i++ {
		s.Tick(now)
		now += 4
	}
	if s.IssueStats().Issued != 3 {
		t.Errorf("Issued after advance = %d, want 3", s.IssueStats().Issued)
	}
}

func TestStreamBufferReallocatesLRU(t *testing.T) {
	env := testEnv()
	s := NewStreamBuffers(env, 2, 2)
	s.OnDemandAccess(0x1000, false, false, 0)
	s.OnDemandAccess(0x5000, false, false, 1)
	s.OnDemandAccess(0x9000, false, false, 2) // must evict stream for 0x1000
	if s.Allocations != 3 {
		t.Errorf("Allocations = %d", s.Allocations)
	}
	if s.ActiveStreams() != 2 {
		t.Errorf("ActiveStreams = %d", s.ActiveStreams())
	}
	// A miss covered by an existing stream's next line does not reallocate.
	s.OnDemandAccess(0x9000, false, false, 3)
	if s.Allocations != 3 {
		t.Errorf("covered miss reallocated: %d", s.Allocations)
	}
}

// pushBlock appends a predicted block of n instructions the way the BPU
// does, in place.
func pushBlock(q *ftq.Queue, seq uint64, start uint64, n int) {
	s := q.PushSlot()
	if s == nil {
		return
	}
	*s = ftq.Block{Seq: seq, Start: start, NumInstrs: n, Lines: s.Lines}
	q.CommitPush()
}

func TestFDPScansBeyondHead(t *testing.T) {
	env := testEnv()
	f := NewFDP(env, FDPConfig{PIQSize: 8, SkipHead: 1})
	pushBlock(env.FTQ, 0, 0x1000, 8) // head: not prefetched
	pushBlock(env.FTQ, 1, 0x2000, 8) // candidate
	f.Tick(0)
	if env.Hier.Inflight(0x1000) {
		t.Error("head block prefetched")
	}
	if !env.Hier.Inflight(0x2000) {
		t.Error("non-head block not prefetched")
	}
	if f.Enqueued != 1 {
		t.Errorf("Enqueued = %d", f.Enqueued)
	}
}

func TestFDPMultiLineBlock(t *testing.T) {
	env := testEnv()
	f := NewFDP(env, FDPConfig{PIQSize: 8, SkipHead: 1})
	pushBlock(env.FTQ, 0, 0x1000, 1)
	pushBlock(env.FTQ, 1, 0x2010, 8) // spans 0x2000 and 0x2020
	now := int64(0)
	for i := 0; i < 5; i++ {
		f.Tick(now)
		now += 4
	}
	if f.Enqueued != 2 {
		t.Fatalf("Enqueued = %d, want 2", f.Enqueued)
	}
	if f.IssueStats().Issued != 2 {
		t.Errorf("Issued = %d", f.IssueStats().Issued)
	}
}

func TestFDPDoesNotRescan(t *testing.T) {
	env := testEnv()
	f := NewFDP(env, FDPConfig{PIQSize: 8, SkipHead: 1})
	pushBlock(env.FTQ, 0, 0x1000, 1)
	pushBlock(env.FTQ, 1, 0x2000, 4)
	f.Tick(0)
	e1 := f.Enqueued
	f.Tick(4)
	f.Tick(8)
	if f.Enqueued != e1 {
		t.Errorf("rescan enqueued again: %d -> %d", e1, f.Enqueued)
	}
}

func TestFDPConservativeCPFFiltersCachedLines(t *testing.T) {
	env := testEnv()
	env.L1I.Fill(0x2000, false) // already cached
	f := NewFDP(env, FDPConfig{PIQSize: 8, SkipHead: 1, CPF: CPFConservative})
	pushBlock(env.FTQ, 0, 0x1000, 1)
	pushBlock(env.FTQ, 1, 0x2000, 4) // one line, cached
	pushBlock(env.FTQ, 2, 0x3000, 4) // one line, not cached
	f.Tick(0)
	if f.FilteredProbe != 1 {
		t.Errorf("FilteredProbe = %d", f.FilteredProbe)
	}
	if f.Enqueued != 1 {
		t.Errorf("Enqueued = %d", f.Enqueued)
	}
	if env.Hier.Inflight(0x2000) {
		t.Error("cached line prefetched despite CPF")
	}
}

func TestFDPConservativeStallsWithoutPort(t *testing.T) {
	env := testEnv()
	f := NewFDP(env, FDPConfig{PIQSize: 8, SkipHead: 1, CPF: CPFConservative})
	pushBlock(env.FTQ, 0, 0x1000, 1)
	pushBlock(env.FTQ, 1, 0x2000, 4)
	// Exhaust both tag ports this cycle (demand fetch + something else).
	env.L1I.TryUsePort(0)
	env.L1I.TryUsePort(0)
	f.Tick(0)
	if f.Enqueued != 0 || f.ConservativeStalls != 1 {
		t.Errorf("enqueued=%d stalls=%d", f.Enqueued, f.ConservativeStalls)
	}
	// Next cycle ports are free again: the candidate goes through.
	f.Tick(1)
	if f.Enqueued != 1 {
		t.Errorf("post-stall Enqueued = %d", f.Enqueued)
	}
}

func TestFDPOptimisticEnqueuesUnverified(t *testing.T) {
	env := testEnv()
	env.L1I.Fill(0x2000, false)
	f := NewFDP(env, FDPConfig{PIQSize: 8, SkipHead: 1, CPF: CPFOptimistic})
	pushBlock(env.FTQ, 0, 0x1000, 1)
	pushBlock(env.FTQ, 1, 0x2000, 4)
	env.L1I.TryUsePort(0)
	env.L1I.TryUsePort(0)
	f.Tick(0)
	if f.Enqueued != 1 || f.Unverified != 1 {
		t.Errorf("enqueued=%d unverified=%d", f.Enqueued, f.Unverified)
	}
}

func TestFDPRemoveCPFDropsLateHits(t *testing.T) {
	env := testEnv()
	f := NewFDP(env, FDPConfig{PIQSize: 8, SkipHead: 1, RemoveCPF: true})
	pushBlock(env.FTQ, 0, 0x1000, 1)
	pushBlock(env.FTQ, 1, 0x2000, 4)
	// Keep the bus busy so the candidate stays queued.
	env.Hier.Request(0x9000, false, 0)
	f.Tick(0)
	if len(f.piq) != 1 {
		t.Fatalf("PIQ = %d", len(f.piq))
	}
	// The line lands in the cache (e.g. demand fetch took it).
	env.L1I.Fill(0x2000, false)
	env.Hier.Request(0x9100, false, 4) // keep bus busy again
	f.Tick(5)
	if f.RemovedProbe != 1 {
		t.Errorf("RemovedProbe = %d", f.RemovedProbe)
	}
	if len(f.piq) != 0 {
		t.Errorf("PIQ after remove = %d", len(f.piq))
	}
}

func TestFDPSquashClearsPIQ(t *testing.T) {
	env := testEnv()
	f := NewFDP(env, FDPConfig{PIQSize: 8, SkipHead: 1})
	pushBlock(env.FTQ, 0, 0x1000, 1)
	pushBlock(env.FTQ, 1, 0x2000, 4)
	pushBlock(env.FTQ, 2, 0x3000, 4)
	env.Hier.Request(0x9000, false, 0) // bus busy: nothing issues
	f.Tick(0)
	if len(f.piq) != 2 {
		t.Fatalf("PIQ = %d", len(f.piq))
	}
	env.FTQ.Squash()
	f.OnSquash()
	if len(f.piq) != 0 || f.SquashDrops != 2 {
		t.Errorf("piq=%d drops=%d", len(f.piq), f.SquashDrops)
	}
	// New blocks after redirect are scanned normally.
	pushBlock(env.FTQ, 3, 0x4000, 4)
	pushBlock(env.FTQ, 4, 0x5000, 4)
	f.Tick(10)
	if f.Enqueued != 3 {
		t.Errorf("post-squash Enqueued = %d", f.Enqueued)
	}
}

func TestFDPPIQCapacity(t *testing.T) {
	env := testEnv()
	f := NewFDP(env, FDPConfig{PIQSize: 2, SkipHead: 1})
	env.Hier.Request(0x9000, false, 0) // bus busy
	pushBlock(env.FTQ, 0, 0x1000, 1)
	for i := 1; i <= 5; i++ {
		pushBlock(env.FTQ, uint64(i), uint64(0x2000+i*0x100), 4)
	}
	f.Tick(0)
	if len(f.piq) != 2 {
		t.Errorf("PIQ exceeded capacity: %d", len(f.piq))
	}
}

func TestFDPDropsPresentAndDuplicate(t *testing.T) {
	env := testEnv()
	f := NewFDP(env, FDPConfig{PIQSize: 8, SkipHead: 1})
	env.PFB.Insert(0x2000)
	pushBlock(env.FTQ, 0, 0x1000, 1)
	pushBlock(env.FTQ, 1, 0x2000, 4) // in PFB: enqueued, dropped at issue
	pushBlock(env.FTQ, 2, 0x3000, 4)
	pushBlock(env.FTQ, 3, 0x3000, 4) // duplicate of the previous block
	f.Tick(0)
	if f.IssueStats().DroppedPresent != 1 {
		t.Errorf("DroppedPresent = %d", f.IssueStats().DroppedPresent)
	}
	if f.DupInPIQ != 1 {
		t.Errorf("DupInPIQ = %d", f.DupInPIQ)
	}
	if !env.Hier.Inflight(0x3000) {
		t.Error("unique candidate not issued")
	}
}

func TestFDPNameVariants(t *testing.T) {
	env := testEnv()
	cfg := DefaultFDPConfig()
	if got := NewFDP(env, cfg).Name(); got != "fdp" {
		t.Errorf("Name = %q", got)
	}
	cfg.CPF = CPFConservative
	if got := NewFDP(env, cfg).Name(); got != "fdp+enqueue-conservative" {
		t.Errorf("Name = %q", got)
	}
	cfg.CPF, cfg.RemoveCPF = CPFOptimistic, true
	if got := NewFDP(env, cfg).Name(); got != "fdp+enqueue-optimistic+remove" {
		t.Errorf("Name = %q", got)
	}
}

func TestFDPRequiresFTQ(t *testing.T) {
	env := testEnv()
	env.FTQ = nil
	defer func() {
		if recover() == nil {
			t.Error("FDP without FTQ did not panic")
		}
	}()
	NewFDP(env, DefaultFDPConfig())
}

func TestPortHygiene(t *testing.T) {
	env := testEnv()
	p := port{env: env}
	env.PFB.Insert(0x1000)
	if r := p.tryIssue(0x1000, 0); r != dropPresent {
		t.Errorf("present: %v", r)
	}
	env.Hier.Request(0x2000, false, 0)
	if r := p.tryIssue(0x2000, 1); r != dropInflight {
		t.Errorf("inflight: %v", r)
	}
	if r := p.tryIssue(0x3000, 1); r != busBusy {
		t.Errorf("busy: %v", r)
	}
	if r := p.tryIssue(0x3000, 10); r != issued {
		t.Errorf("idle: %v", r)
	}
	want := PortStats{Issued: 1, DroppedPresent: 1, DroppedInflight: 1, DeferredBusBusy: 1}
	if p.stats != want {
		t.Errorf("stats = %+v", p.stats)
	}
}

func TestFDPKeepPIQOnSquash(t *testing.T) {
	env := testEnv()
	f := NewFDP(env, FDPConfig{PIQSize: 8, SkipHead: 1, KeepPIQOnSquash: true})
	pushBlock(env.FTQ, 0, 0x1000, 1)
	pushBlock(env.FTQ, 1, 0x2000, 4)
	env.Hier.Request(0x9000, false, 0) // bus busy: candidate stays queued
	f.Tick(0)
	if len(f.piq) != 1 {
		t.Fatalf("PIQ = %d", len(f.piq))
	}
	env.FTQ.Squash()
	f.OnSquash()
	if len(f.piq) != 1 || f.SquashDrops != 0 {
		t.Errorf("keep-on-squash dropped entries: piq=%d drops=%d", len(f.piq), f.SquashDrops)
	}
	if f.Name() != "fdp+keep-wrongpath" {
		t.Errorf("Name = %q", f.Name())
	}
}

// TestFDPNextEventPIQFull pins the FDP's Idle rule around a full PIQ: the
// populated PIQ keeps the engine busy, the scan it blocks moves nothing but
// one bus-busy deferral per Tick, and once the PIQ drains and the scan
// cursor catches up with the FTQ the engine reports Idle — after which a
// Tick is a no-op.
func TestFDPNextEventPIQFull(t *testing.T) {
	env := testEnv()
	f := NewFDP(env, FDPConfig{PIQSize: 2, SkipHead: 1})
	if !f.Idle() {
		t.Error("fresh FDP over an empty FTQ not idle")
	}
	env.Hier.Request(0x9000, false, 0) // bus busy until cycle 4
	pushBlock(env.FTQ, 0, 0x1000, 1)
	pushBlock(env.FTQ, 1, 0x2000, 4)
	if f.Idle() {
		t.Error("FDP with unscanned blocks claims idle")
	}
	pushBlock(env.FTQ, 2, 0x3000, 4)
	pushBlock(env.FTQ, 3, 0x4000, 4) // stays unscanned: PIQ fills first
	f.Tick(0)
	if len(f.piq) != 2 {
		t.Fatalf("PIQ = %d, want 2", len(f.piq))
	}
	if f.Idle() {
		t.Error("FDP with a populated PIQ claims idle")
	}

	// The blocked scan must not move any counter or the cursor.
	type snap struct {
		enq, filt, dup, cons uint64
		stats                PortStats
		piq                  int
		seq                  uint64
		line                 int
	}
	take := func() snap {
		return snap{f.Enqueued, f.FilteredProbe, f.DupInPIQ, f.ConservativeStalls,
			f.port.stats, len(f.piq), f.nextSeq, f.nextLine}
	}
	before := take()
	f.Tick(1)
	f.Tick(2)
	after := take()
	// Ticks against a busy bus count one deferral each; nothing else moves.
	before.stats.DeferredBusBusy += 2
	if before != after {
		t.Errorf("blocked scan mutated state:\nbefore+defer: %+v\nafter:        %+v", before, after)
	}

	// When the bus frees, the head issues and the scan resumes; stepping on
	// drains the PIQ and the scan until the engine goes idle.
	f.Tick(4)
	if f.IssueStats().Issued != 1 {
		t.Errorf("Issued after bus freed = %d", f.IssueStats().Issued)
	}
	now := int64(5)
	for ; !f.Idle() && now < 1000; now++ {
		f.Tick(now)
	}
	if !f.Idle() {
		t.Fatalf("FDP still busy at cycle %d (PIQ %d)", now, len(f.piq))
	}
	before = take()
	f.Tick(now)
	if after := take(); before != after {
		t.Errorf("idle Tick mutated state:\nbefore: %+v\nafter:  %+v", before, after)
	}
}

// TestFDPNextEventRemoveCPFStaysActive guards the one PIQ-populated state
// the scheduler must never jump: remove-side probing re-checks queued
// entries every cycle.
func TestFDPNextEventRemoveCPFStaysActive(t *testing.T) {
	env := testEnv()
	f := NewFDP(env, FDPConfig{PIQSize: 2, SkipHead: 1, RemoveCPF: true})
	env.Hier.Request(0x9000, false, 0)
	pushBlock(env.FTQ, 0, 0x1000, 1)
	pushBlock(env.FTQ, 1, 0x2000, 4)
	pushBlock(env.FTQ, 2, 0x3000, 4)
	f.Tick(0)
	if len(f.piq) != 2 {
		t.Fatalf("PIQ = %d", len(f.piq))
	}
	if f.Idle() {
		t.Error("RemoveCPF FDP with a populated PIQ claims idle")
	}
}
