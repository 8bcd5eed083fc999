package prefetch

// NextLine is Smith-style tagged next-line prefetching: a demand miss on
// line L, or the first use of a prefetched line L, triggers a prefetch of
// L+1. Triggers that find the bus busy wait in a small pending queue.
type NextLine struct {
	port    port
	pending lineQueue

	// Triggers counts miss/first-use events; PendingDrops counts triggers
	// discarded because the pending queue was full.
	Triggers, PendingDrops uint64
}

// NewNextLine creates a tagged next-line prefetcher with a pending queue of
// pendCap triggers.
func NewNextLine(env Env, pendCap int) *NextLine {
	return &NextLine{port: port{env: env}, pending: make(lineQueue, 0, pendCap)}
}

// Name implements Prefetcher.
func (n *NextLine) Name() string { return "nextline" }

// OnDemandAccess implements Prefetcher: misses and prefetch-buffer hits
// (first use of a prefetched line) trigger the next line.
func (n *NextLine) OnDemandAccess(lineAddr uint64, l1Hit, pfbHit bool, now int64) {
	if l1Hit && !pfbHit {
		return
	}
	n.Triggers++
	if !n.pending.offer(lineAddr + uint64(n.port.env.LineBytes)) {
		n.PendingDrops++
	}
}

// Tick implements Prefetcher: issue the oldest pending trigger into an idle
// bus slot.
func (n *NextLine) Tick(now int64) { n.pending.drain(&n.port, now) }

// Idle implements Prefetcher: an empty pending queue waits on demand
// traffic.
func (n *NextLine) Idle() bool { return len(n.pending) == 0 }

// OnSquash implements Prefetcher. Next-line triggers come from the demand
// stream, not predictions, so redirects do not invalidate them.
func (n *NextLine) OnSquash() {}

// Reset implements Prefetcher: pending queue emptied, counters zeroed.
func (n *NextLine) Reset() {
	n.pending = n.pending[:0]
	n.Triggers, n.PendingDrops = 0, 0
	n.port.stats = PortStats{}
}

// IssueStats implements Prefetcher.
func (n *NextLine) IssueStats() PortStats { return n.port.stats }
