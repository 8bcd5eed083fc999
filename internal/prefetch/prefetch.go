// Package prefetch implements the instruction prefetch engines the paper
// evaluates: fetch-directed prefetching (the contribution), tagged next-line
// prefetching and multi-way stream buffers (the baselines), and a null
// prefetcher.
//
// All engines share the same issue port for a fair bandwidth comparison:
// prefetches are issued only into idle L1↔L2 bus slots, at most one per
// cycle, and land in the shared fully-associative prefetch buffer probed
// alongside the L1-I. Lines already buffered or in flight are dropped, never
// re-requested. Next-line, MANA and shadow-target issue drain their line
// queue: a dropped head is popped and the next one tried, until one issues or
// the bus is busy. FDP stops at a busy bus even after dropping a stale PIQ
// head: it checks the bus after every pop and leaves the rest of the PIQ for
// a later cycle.
package prefetch

import (
	"fdip/internal/btb"
	"fdip/internal/cache"
	"fdip/internal/ftq"
	"fdip/internal/memsys"
	"fdip/internal/program"
)

// Env wires a prefetcher to the structures it observes and drives.
type Env struct {
	// L1I is the instruction cache (probed by cache-probe filtering).
	L1I *cache.Cache
	// PFB is the shared prefetch buffer prefetched lines land in.
	PFB *cache.PrefetchBuffer
	// Hier is the bus + L2 + memory below the L1-I.
	Hier *memsys.Hierarchy
	// FTQ is the fetch target queue (used by fetch-directed prefetching).
	FTQ *ftq.Queue
	// FTB is the front end's target buffer, prefilled by the shadow-branch
	// engine. Nil for engines that never touch predictor state.
	FTB *btb.TargetBuffer
	// Image returns the current program image — the ground-truth decode
	// source for engines that decode fetched line bytes. A closure rather
	// than a pointer because Processor.Reset swaps images under a pooled
	// machine.
	Image func() *program.Image
	// LineBytes is the cache line size.
	LineBytes int
}

// Prefetcher is the interface the processor core drives each cycle.
type Prefetcher interface {
	// Name identifies the scheme in reports.
	Name() string
	// Tick runs once per cycle, after the fetch engine.
	Tick(now int64)
	// Idle reports that Tick is a no-op — no queue, cursor or counter
	// moves — until the next demand access, squash, FTQ push or memory
	// completion. The core's cycle-skip scheduler only jumps the clock
	// while the engine is idle; false is always a safe answer.
	Idle() bool
	// OnDemandAccess notifies the engine of a demand L1-I access to
	// lineAddr and its outcome: l1Hit for a cache hit, pfbHit for a
	// prefetch-buffer hit (mutually exclusive; both false on a full miss).
	OnDemandAccess(lineAddr uint64, l1Hit, pfbHit bool, now int64)
	// OnSquash notifies the engine of a front-end redirect: the FTQ was
	// squashed and queued predictions are dead.
	OnSquash()
	// Reset restores the pristine just-constructed state — queues empty,
	// cursors rewound, counters zeroed — retaining allocated storage (the
	// layer-wide Reset contract; see ARCHITECTURE.md). The environment's
	// structures (L1-I, PFB, hierarchy, FTQ) are reset by their owners.
	Reset()
	// IssueStats returns the shared issue-port counters.
	IssueStats() PortStats
}

// PortStats counts the issue port's decisions.
type PortStats struct {
	// Issued counts prefetch transfers started on the bus.
	Issued uint64
	// DroppedPresent counts candidates already in the L1-I-side storage
	// (prefetch buffer); DroppedInflight candidates already on the bus;
	// DeferredBusBusy candidates that found no idle bus slot this cycle.
	DroppedPresent, DroppedInflight, DeferredBusBusy uint64
}

// port is the shared issue path: hygiene checks, then an idle-bus request.
type port struct {
	env   Env
	stats PortStats
}

// issueResult tells the caller why an issue did not happen.
type issueResult uint8

const (
	issued issueResult = iota
	dropPresent
	dropInflight
	busBusy
)

// tryIssue attempts to start a prefetch of line at cycle now.
func (p *port) tryIssue(line uint64, now int64) issueResult {
	if p.env.PFB.Contains(line) {
		p.stats.DroppedPresent++
		return dropPresent
	}
	if p.env.Hier.Inflight(line) {
		p.stats.DroppedInflight++
		return dropInflight
	}
	if !p.env.Hier.BusIdle(now) {
		p.stats.DeferredBusBusy++
		return busBusy
	}
	p.env.Hier.Request(line, true, now)
	p.stats.Issued++
	return issued
}

// lineQueue is a bounded FIFO of line addresses, oldest first. Its capacity
// is fixed when it is made (make(lineQueue, 0, n)), so offers past it are
// refused and no operation allocates.
type lineQueue []uint64

// has reports whether line is queued.
func (q lineQueue) has(line uint64) bool {
	for _, l := range q {
		if l == line {
			return true
		}
	}
	return false
}

// full reports whether the queue is at capacity.
func (q lineQueue) full() bool { return len(q) == cap(q) }

// offer queues line unless it is already queued. It returns false, and
// queues nothing, when the queue is full.
func (q *lineQueue) offer(line uint64) bool {
	if q.has(line) {
		return true
	}
	if q.full() {
		return false
	}
	*q = append(*q, line)
	return true
}

// pop removes and returns the oldest line, shifting the rest down so the
// capacity is kept. The queue must not be empty.
func (q *lineQueue) pop() uint64 {
	line := (*q)[0]
	*q = (*q)[:copy(*q, (*q)[1:])]
	return line
}

// drain issues the oldest queued line through p into an idle bus slot, one
// per cycle: lines already buffered or in flight are popped and the next one
// tried, and a busy bus leaves the head queued.
func (q *lineQueue) drain(p *port, now int64) {
	for len(*q) > 0 {
		r := p.tryIssue((*q)[0], now)
		if r == busBusy {
			return
		}
		q.pop()
		if r == issued {
			return
		}
	}
}

// None is the no-prefetch baseline.
type None struct{}

// NewNone returns the null prefetcher.
func NewNone() *None { return &None{} }

// Name implements Prefetcher.
func (*None) Name() string { return "none" }

// Tick implements Prefetcher.
func (*None) Tick(int64) {}

// Idle implements Prefetcher: the null prefetcher never acts.
func (*None) Idle() bool { return true }

// OnDemandAccess implements Prefetcher.
func (*None) OnDemandAccess(uint64, bool, bool, int64) {}

// OnSquash implements Prefetcher.
func (*None) OnSquash() {}

// Reset implements Prefetcher; the null prefetcher has no state.
func (*None) Reset() {}

// IssueStats implements Prefetcher.
func (*None) IssueStats() PortStats { return PortStats{} }
