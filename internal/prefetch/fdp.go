package prefetch

import (
	"fmt"

	"fdip/internal/ftq"
)

// CPFMode selects the cache-probe-filtering policy applied when a candidate
// line is enqueued into the prefetch instruction queue (PIQ).
//
// Cache-probe filtering uses *idle* L1-I tag ports to check whether a
// candidate is already cached. The policies differ in what happens when no
// idle port is available:
type CPFMode uint8

const (
	// CPFOff enqueues every candidate without consulting the cache — the
	// unfiltered fetch-directed prefetcher.
	CPFOff CPFMode = iota
	// CPFConservative enqueues only candidates verified to miss; with no
	// idle port the scan stalls and retries next cycle.
	CPFConservative
	// CPFOptimistic enqueues candidates unless verified to hit; with no
	// idle port the candidate is enqueued unverified.
	CPFOptimistic
)

// String names the mode.
func (m CPFMode) String() string {
	switch m {
	case CPFOff:
		return "off"
	case CPFConservative:
		return "enqueue-conservative"
	case CPFOptimistic:
		return "enqueue-optimistic"
	}
	return fmt.Sprintf("cpf(%d)", uint8(m))
}

// FDPConfig tunes the fetch-directed prefetcher.
type FDPConfig struct {
	// PIQSize is the prefetch instruction queue capacity in lines.
	PIQSize int
	// SkipHead is the number of FTQ entries at the front excluded from
	// prefetching (1 = the fetch point, as in the paper).
	SkipHead int
	// CPF selects the enqueue-side cache-probe-filtering policy.
	CPF CPFMode
	// RemoveCPF enables remove-side filtering: leftover idle tag ports
	// re-probe queued PIQ entries and drop those that now hit.
	RemoveCPF bool
	// KeepPIQOnSquash retains queued candidates across front-end
	// redirects instead of discarding them. The queued lines belong to a
	// squashed (wrong) path; keeping them trades pollution for the chance
	// that the wrong path reconverges — an ablation of the paper's
	// discard policy.
	KeepPIQOnSquash bool
}

// DefaultFDPConfig returns the paper-style configuration with filtering off.
func DefaultFDPConfig() FDPConfig {
	return FDPConfig{PIQSize: 16, SkipHead: 1}
}

// FDP is the fetch-directed prefetcher: it scans the fetch target queue
// beyond the fetch point, decomposes predicted fetch blocks into cache-line
// candidates, filters them, and issues them into idle bus slots.
type FDP struct {
	port port
	cfg  FDPConfig

	piq lineQueue

	// Scan cursor: the next (block sequence, line index) to consider.
	nextSeq  uint64
	nextLine int

	// Enqueued counts PIQ insertions; FilteredProbe candidates dropped by
	// an enqueue-side probe hit; Unverified optimistic enqueues without a
	// port; ConservativeStalls scan stalls waiting for a port; DupInPIQ
	// candidates already queued; RemovedProbe PIQ entries dropped by
	// remove-side probing; SquashDrops PIQ entries discarded on redirect.
	Enqueued, FilteredProbe, Unverified uint64
	ConservativeStalls, DupInPIQ        uint64
	RemovedProbe, SquashDrops           uint64
}

// NewFDP creates a fetch-directed prefetcher. env.FTQ must be non-nil. The
// configuration is taken as given: PIQSize positive, SkipHead at least 0
// (core.Config.Validate ensures it).
func NewFDP(env Env, cfg FDPConfig) *FDP {
	if env.FTQ == nil {
		panic("prefetch: FDP requires an FTQ")
	}
	return &FDP{port: port{env: env}, cfg: cfg, piq: make(lineQueue, 0, cfg.PIQSize)}
}

// Name implements Prefetcher.
func (f *FDP) Name() string {
	n := "fdp"
	if f.cfg.CPF != CPFOff {
		n += "+" + f.cfg.CPF.String()
	}
	if f.cfg.RemoveCPF {
		n += "+remove"
	}
	if f.cfg.KeepPIQOnSquash {
		n += "+keep-wrongpath"
	}
	return n
}

// Tick implements Prefetcher: scan, filter, then issue.
func (f *FDP) Tick(now int64) {
	f.scan(now)
	f.issue(now)
	if f.cfg.RemoveCPF {
		f.removeProbe(now)
	}
}

// scan walks unscanned FTQ lines into the PIQ, applying enqueue-side CPF.
func (f *FDP) scan(now int64) {
	q := f.port.env.FTQ
	n := q.Len()
	if n <= f.cfg.SkipHead || q.NewestSeq() < f.nextSeq {
		return // everything queued has been scanned; skip the walk
	}
	// Queue entries carry consecutive sequence numbers (the BPU pushes them
	// in order), so the cursor's position resolves to an index directly —
	// the walk starts at the first unscanned block instead of re-skipping
	// every scanned one.
	start := f.cfg.SkipHead
	if head := q.At(0); f.nextSeq > head.Seq {
		if d := int(f.nextSeq - head.Seq); d > start {
			start = d
		}
	}
	for i := start; i < n; i++ {
		b := q.At(i)
		if b.Seq < f.nextSeq {
			continue // already scanned
		}
		if b.Seq > f.nextSeq {
			// Cursor block was fetched or squashed away; jump forward.
			f.nextSeq = b.Seq
			f.nextLine = 0
		}
		for f.nextLine < len(b.Lines) {
			if f.piq.full() {
				return
			}
			ln := &b.Lines[f.nextLine]
			if ln.State != ftq.LineCandidate {
				f.nextLine++
				continue
			}
			if f.piq.has(ln.Addr) {
				ln.State = ftq.LineEnqueued
				f.DupInPIQ++
				f.nextLine++
				continue
			}
			switch f.cfg.CPF {
			case CPFOff:
				f.enqueue(ln)
			case CPFConservative, CPFOptimistic:
				if f.port.env.L1I.TryUsePort(now) {
					if f.port.env.L1I.Probe(ln.Addr) {
						ln.State = ftq.LineFiltered
						f.FilteredProbe++
					} else {
						f.enqueue(ln)
					}
				} else if f.cfg.CPF == CPFOptimistic {
					f.Unverified++
					f.enqueue(ln)
				} else {
					// Conservative: no port, no verification — hold the
					// cursor and retry next cycle.
					f.ConservativeStalls++
					return
				}
			}
			f.nextLine++
		}
		f.nextSeq = b.Seq + 1
		f.nextLine = 0
	}
}

func (f *FDP) enqueue(ln *ftq.Line) {
	ln.State = ftq.LineEnqueued
	f.piq = append(f.piq, ln.Addr)
	f.Enqueued++
}

// issue starts at most one prefetch from the PIQ head per idle bus slot.
func (f *FDP) issue(now int64) {
	for len(f.piq) > 0 {
		switch f.port.tryIssue(f.piq[0], now) {
		case issued, dropPresent, dropInflight:
			f.piq.pop()
		case busBusy:
			return
		}
		// A successful issue occupies the bus, so stop scanning once it
		// is no longer idle; dropped entries cost nothing and the loop
		// continues to the next candidate.
		if !f.port.env.Hier.BusIdle(now) {
			return
		}
	}
}

// removeProbe spends leftover idle tag ports re-checking queued entries,
// dropping any that have become cache hits since enqueue.
func (f *FDP) removeProbe(now int64) {
	i := 0
	for i < len(f.piq) {
		if f.port.env.L1I.IdlePorts(now) == 0 || !f.port.env.L1I.TryUsePort(now) {
			return
		}
		if f.port.env.L1I.Probe(f.piq[i]) {
			f.piq = append(f.piq[:i], f.piq[i+1:]...)
			f.RemovedProbe++
			continue
		}
		i++
	}
}

// Idle implements Prefetcher: the FDP acts while its PIQ holds entries to
// issue (or re-probe) and while the scan cursor trails the newest FTQ block
// beyond the skipped head (detected exactly by comparing against the
// queue's monotonic sequence number).
func (f *FDP) Idle() bool {
	q := f.port.env.FTQ
	return len(f.piq) == 0 && (q.Len() <= f.cfg.SkipHead || q.NewestSeq() < f.nextSeq)
}

// OnDemandAccess implements Prefetcher; FDP is driven by the FTQ, not the
// demand stream.
func (f *FDP) OnDemandAccess(uint64, bool, bool, int64) {}

// OnSquash implements Prefetcher: queued candidates belong to the squashed
// path and are discarded (unless KeepPIQOnSquash ablates that). The scan
// cursor stays monotonic because block sequence numbers keep increasing
// across redirects.
func (f *FDP) OnSquash() {
	if f.cfg.KeepPIQOnSquash {
		return
	}
	f.SquashDrops += uint64(len(f.piq))
	f.piq = f.piq[:0]
}

// Reset implements Prefetcher: the PIQ emptied, the scan cursor rewound to
// the first block the (reset) BPU will push, and counters zeroed. The PIQ's
// backing array is retained.
func (f *FDP) Reset() {
	f.piq = f.piq[:0]
	f.nextSeq = 0
	f.nextLine = 0
	f.Enqueued, f.FilteredProbe, f.Unverified = 0, 0, 0
	f.ConservativeStalls, f.DupInPIQ = 0, 0
	f.RemovedProbe, f.SquashDrops = 0, 0
	f.port.stats = PortStats{}
}

// IssueStats implements Prefetcher.
func (f *FDP) IssueStats() PortStats { return f.port.stats }
