package prefetch

import "math/bits"

// MANA is a spatial-region instruction prefetcher in the style of MANA
// (Ansari et al., arXiv:2102.01764): the demand miss stream is segmented
// into spatial regions anchored at a trigger line, each region's footprint
// of subsequently-touched lines is recorded in a set-associative table, and
// a later miss on a recorded trigger replays the footprint as prefetches.
//
// The defining MANA constraint is the metadata budget: the table is sized
// from BudgetBytes using a per-record bit cost (tag + footprint bitmap), so
// widening regions buys reach at the price of fewer records — the same
// trade the paper sweeps. Replayed lines issue through the shared port
// discipline (idle bus slots only, one per cycle, hygiene-checked against
// the PFB and in-flight transfers).
type MANA struct {
	port port
	cfg  MANAConfig

	// Record table: sets x ways, true-LRU, flat backing (see btb.New).
	sets     [][]manaRecord
	setShift uint
	clock    uint64

	// Training state: the open region's trigger line number and footprint,
	// and the last demand line seen (for run-length dedup of the per-cycle
	// demand notifications).
	trigger  uint64
	foot     uint64
	open     bool
	lastLine uint64
	seenAny  bool

	// pending is the replay queue feeding the issue port.
	pending lineQueue

	// Triggers counts distinct-line demand events; RecordHits footprint
	// replays; RegionsCommitted non-empty footprints written back;
	// PendingDrops replayed lines discarded on a full queue.
	Triggers, RecordHits, RegionsCommitted, PendingDrops uint64
}

// manaRecord maps a trigger line to the footprint of its spatial region:
// bit i set means line trigger+i+1 was demanded while the region was open.
type manaRecord struct {
	valid bool
	tag   uint64
	foot  uint64
	stamp uint64
}

// MANAConfig tunes the spatial-region prefetcher.
type MANAConfig struct {
	// BudgetBytes is the metadata budget; the record count is derived from
	// it at RecordBits bits per record.
	BudgetBytes int
	// RegionLines is the spatial region span in cache lines, including the
	// trigger (2..64). It sets the footprint width to RegionLines-1 bits.
	RegionLines int
	// QueueSize caps the replay queue feeding the issue port.
	QueueSize int
}

// DefaultMANAConfig returns a 2KB-budget, 8-line-region configuration.
func DefaultMANAConfig() MANAConfig {
	return MANAConfig{BudgetBytes: 2048, RegionLines: 8, QueueSize: 16}
}

// manaTagBits approximates the stored trigger tag width for budget
// accounting (a 48-bit line address less the set index, rounded the way the
// paper's storage tables do).
const manaTagBits = 32

// RecordBits returns the storage cost of one record under the budget
// accounting: a trigger tag plus the RegionLines-1 footprint bits.
func (c MANAConfig) RecordBits() int { return manaTagBits + c.RegionLines - 1 }

// NewMANA creates a spatial-region prefetcher sized to cfg's budget. The
// configuration is taken as given: BudgetBytes and QueueSize positive,
// RegionLines in [2, 64] (core.Config.Validate ensures it).
func NewMANA(env Env, cfg MANAConfig) *MANA {
	entries := cfg.BudgetBytes * 8 / cfg.RecordBits()
	ways := 4
	if entries < ways {
		ways = 1
	}
	numSets := ceilPow2((entries + ways - 1) / ways)
	backing := make([]manaRecord, numSets*ways)
	sets := make([][]manaRecord, numSets)
	for i := range sets {
		sets[i] = backing[i*ways : (i+1)*ways : (i+1)*ways]
	}
	return &MANA{
		port:     port{env: env},
		cfg:      cfg,
		sets:     sets,
		setShift: uint(bits.TrailingZeros(uint(numSets))),
		pending:  make(lineQueue, 0, cfg.QueueSize),
	}
}

// Name implements Prefetcher.
func (m *MANA) Name() string { return "mana" }

func (m *MANA) setAndTag(ln uint64) (int, uint64) {
	return int(ln & uint64(len(m.sets)-1)), ln >> m.setShift
}

// OnDemandAccess implements Prefetcher. Every distinct-line demand access
// trains the open region's footprint; accesses that miss the L1-I (full
// misses and prefetch-buffer first uses) additionally look the line up as a
// trigger and replay a recorded footprint.
func (m *MANA) OnDemandAccess(lineAddr uint64, l1Hit, pfbHit bool, now int64) {
	ln := lineAddr / uint64(m.port.env.LineBytes)
	if m.seenAny && ln == m.lastLine {
		return // the fetch engine re-reads the same line for cycles at a time
	}
	m.seenAny = true
	m.lastLine = ln
	m.Triggers++

	if !l1Hit {
		// Miss-stream trigger: replay the recorded region before training
		// touches the table.
		if foot, ok := m.lookup(ln); ok {
			m.RecordHits++
			for foot != 0 {
				i := bits.TrailingZeros64(foot)
				foot &^= 1 << i
				if !m.pending.offer((ln + uint64(i) + 1) * uint64(m.port.env.LineBytes)) {
					m.PendingDrops++
				}
			}
		}
	}

	// Train: extend the open region while the access lands inside it,
	// otherwise commit the footprint and re-anchor at this line.
	if m.open {
		if d := ln - m.trigger; d >= 1 && d < uint64(m.cfg.RegionLines) {
			m.foot |= 1 << (d - 1)
			return
		}
		if m.foot != 0 {
			m.commit(m.trigger, m.foot)
			m.RegionsCommitted++
		}
	}
	m.open = true
	m.trigger = ln
	m.foot = 0
}

// lookup probes the record table for trigger line ln, refreshing LRU on hit.
func (m *MANA) lookup(ln uint64) (uint64, bool) {
	si, tag := m.setAndTag(ln)
	set := m.sets[si]
	for i := range set {
		r := &set[i]
		if r.valid && r.tag == tag {
			m.clock++
			r.stamp = m.clock
			return r.foot, true
		}
	}
	return 0, false
}

// commit writes a region footprint back, OR-merging into an existing record
// (regions re-learn incrementally across visits) or evicting true-LRU.
func (m *MANA) commit(ln, foot uint64) {
	si, tag := m.setAndTag(ln)
	set := m.sets[si]
	m.clock++
	for i := range set {
		r := &set[i]
		if r.valid && r.tag == tag {
			r.foot |= foot
			r.stamp = m.clock
			return
		}
	}
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].stamp < set[victim].stamp {
			victim = i
		}
	}
	set[victim] = manaRecord{valid: true, tag: tag, foot: foot, stamp: m.clock}
}

// Tick implements Prefetcher: issue the oldest replayed line into an idle
// bus slot.
func (m *MANA) Tick(now int64) { m.pending.drain(&m.port, now) }

// Idle implements Prefetcher: an empty replay queue waits on demand
// traffic.
func (m *MANA) Idle() bool { return len(m.pending) == 0 }

// OnSquash implements Prefetcher. Regions are trained on the architectural
// demand stream and replays are spatial, not path predictions, so redirects
// invalidate nothing.
func (m *MANA) OnSquash() {}

// Reset implements Prefetcher: the record table invalidated, the LRU clock
// rewound, training state and replay queue cleared, counters zeroed — all
// backing arrays retained.
func (m *MANA) Reset() {
	for _, set := range m.sets {
		clear(set)
	}
	m.clock = 0
	m.trigger, m.foot, m.open = 0, 0, false
	m.lastLine, m.seenAny = 0, false
	m.pending = m.pending[:0]
	m.Triggers, m.RecordHits, m.RegionsCommitted, m.PendingDrops = 0, 0, 0, 0
	m.port.stats = PortStats{}
}

// IssueStats implements Prefetcher.
func (m *MANA) IssueStats() PortStats { return m.port.stats }

// ceilPow2 rounds v up to a power of two, at least 1.
func ceilPow2(v int) int { return 1 << bits.Len(uint(max(v, 1)-1)) }
