// Package core assembles the full processor model: decoupled front end,
// memory hierarchy, prefetch engine, and backend, driven by a single cycle
// loop. It is the home of the paper's contribution — fetch-directed
// instruction prefetching as a system — with every design knob the
// evaluation sweeps exposed in Config.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"fdip/internal/backend"
	"fdip/internal/btb"
	"fdip/internal/cache"
	"fdip/internal/isa"
	"fdip/internal/memsys"
	"fdip/internal/prefetch"
)

// PrefetcherKind names a prefetch scheme.
type PrefetcherKind string

// The prefetch schemes the paper evaluates.
const (
	// PrefetchNone is the no-prefetch baseline.
	PrefetchNone PrefetcherKind = "none"
	// PrefetchNextLine is Smith-style tagged next-line prefetching.
	PrefetchNextLine PrefetcherKind = "nextline"
	// PrefetchStream is multi-way Jouppi stream buffers.
	PrefetchStream PrefetcherKind = "streambuf"
	// PrefetchFDP is fetch-directed prefetching from the FTQ.
	PrefetchFDP PrefetcherKind = "fdp"
)

// The modern engines from the paper's successors (ROADMAP item 3).
const (
	// PrefetchMANA is MANA-style spatial-region prefetching with a
	// metadata-budget knob (arXiv:2102.01764).
	PrefetchMANA PrefetcherKind = "mana"
	// PrefetchShadow is shadow-branch decoding of fetched lines that
	// prefills the FTB ahead of the BPU (arXiv:2408.12592).
	PrefetchShadow PrefetcherKind = "shadow"
)

// PrefetchConfig selects and tunes the prefetch engine.
type PrefetchConfig struct {
	// Kind picks the scheme.
	Kind PrefetcherKind
	// FDP configures fetch-directed prefetching (Kind == PrefetchFDP).
	FDP prefetch.FDPConfig
	// NextLinePending sizes the next-line trigger queue.
	NextLinePending int
	// Streams and StreamDepth size the stream-buffer prefetcher.
	Streams, StreamDepth int
	// MANA configures spatial-region prefetching (Kind == PrefetchMANA).
	MANA prefetch.MANAConfig
	// Shadow configures the shadow-branch decoder (Kind == PrefetchShadow).
	Shadow prefetch.ShadowConfig
}

// Config is the full machine description. Validate is its one
// normalisation rule: it defaults, rounds, clamps and bounds every field, and
// the components the processor assembles trust the validated config as
// given, with no defaulting of their own.
type Config struct {
	// L1ISizeBytes, L1IWays, LineBytes, L1ITagPorts size the instruction
	// cache. LineBytes is shared with the bus/L2 transfer unit.
	L1ISizeBytes, L1IWays, LineBytes, L1ITagPorts int
	// PerfectL1I makes every instruction fetch hit — the upper bound on
	// what any instruction prefetcher can deliver. Mispredictions and
	// backend limits still apply.
	PerfectL1I bool
	// PrefetchBufferEntries sizes the fully-associative prefetch buffer.
	PrefetchBufferEntries int
	// Mem configures the L2, bus, and memory. Its LineBytes is forced to
	// LineBytes.
	Mem memsys.Config
	// FTQEntries is the fetch target queue depth in fetch blocks.
	FTQEntries int
	// FTB configures the fetch target buffer.
	FTB btb.Config
	// PredictorName selects the direction predictor ("hybrid", "gshare",
	// "bimodal", "static-taken", "static-nottaken"); PredictorSize is the
	// per-table counter count and PredictorHistBits the history length.
	PredictorName     string
	PredictorSize     int
	PredictorHistBits uint
	// RASEntries sizes the return address stack.
	RASEntries int
	// FetchWidth bounds instructions fetched per cycle (from one line).
	FetchWidth int
	// RedirectLatency is the resolve-to-repredict delay in cycles.
	RedirectLatency int
	// Backend configures the execution core.
	Backend backend.Config
	// Prefetch selects the prefetch engine.
	Prefetch PrefetchConfig
	// MaxInstrs stops the run after this many committed instructions.
	MaxInstrs uint64
	// MaxCycles is a safety cap (0 = 100x MaxInstrs, saturating).
	MaxCycles int64
}

// DefaultConfig is the paper-inspired baseline machine: 16KB 2-way 32B-line
// dual-ported L1-I, 32-entry prefetch buffer, 32-entry FTQ, 512x4 FTB,
// 4K-entry hybrid predictor, 4-wide fetch, 8-wide 128-entry backend, and the
// DefaultConfig memory system. Prefetching defaults to none.
func DefaultConfig() Config {
	return Config{
		L1ISizeBytes:          16 * 1024,
		L1IWays:               2,
		LineBytes:             32,
		L1ITagPorts:           2,
		PrefetchBufferEntries: 32,
		Mem:                   memsys.DefaultConfig(),
		FTQEntries:            32,
		FTB:                   btb.DefaultConfig(),
		PredictorName:         "hybrid",
		PredictorSize:         4096,
		PredictorHistBits:     12,
		RASEntries:            32,
		FetchWidth:            4,
		RedirectLatency:       2,
		Backend:               backend.DefaultConfig(),
		Prefetch: PrefetchConfig{
			Kind:            PrefetchNone,
			FDP:             prefetch.DefaultFDPConfig(),
			NextLinePending: 4,
			Streams:         4,
			StreamDepth:     4,
			MANA:            prefetch.DefaultMANAConfig(),
			Shadow:          prefetch.DefaultShadowConfig(),
		},
		MaxInstrs: 1_000_000,
	}
}

// l1i is the L1-I's geometry.
func (c *Config) l1i() cache.Config {
	return cache.Config{
		SizeBytes: c.L1ISizeBytes,
		Ways:      c.L1IWays,
		LineBytes: c.LineBytes,
		TagPorts:  c.L1ITagPorts,
	}
}

// maxTableEntries bounds every count that sizes one of the machine's tables:
// queue depths, predictor and FTB entries, cache lines, the ROB. It is far
// above any machine the paper or its successors model, and low enough that a
// hostile count is refused before a table is allocated: at 2^36 entries a
// make exhausts memory, and past 2^62 the power-of-two round-ups overflow.
// Widths and other counts with no table behind them share it.
const maxTableEntries = 1 << 20

// maxLatency bounds every latency, in cycles. The longest the evaluation
// models is a 300-cycle memory; near MaxInt64, now + latency wraps and the
// run returns a plausible, wrong Result.
const maxLatency = 1 << 20

// noCeiling marks a byte size bounded through the line count it implies.
const noCeiling = math.MaxInt

// A fieldRule says what Validate does with a value above a field's ceiling.
type fieldRule uint8

const (
	// refuse makes a value above the ceiling an error.
	refuse fieldRule = iota
	// clamp lowers a value above the ceiling to it.
	clamp
	// pow2 refuses a value above the (power-of-two) ceiling and rounds the
	// rest up to a power of two, so the result stays within it.
	pow2
)

// field is one integer of the machine description as Validate normalises
// it. A negative value, or 0 when lo is positive, takes def; a value below
// lo is raised to it; a value above hi is handled by rule.
type field struct {
	name   string
	v      *int
	def    int
	lo, hi int
	rule   fieldRule
}

// Validate is the one normalisation rule of the machine description: it
// gives every unset field its default, rounds and clamps the fields whose
// hardware demands it, and refuses anything out of bounds: a cache geometry
// cache.New would refuse, a table count above maxTableEntries, a latency
// above maxLatency. The components take the validated config as given, with
// no defaulting of their own, so two descriptions of one machine validate
// to one Config (and one engine JobKey), and Validate is idempotent. A bad
// config fails its own run rather than panicking, or exhausting memory in,
// the machine build.
func (c *Config) Validate() error {
	d := DefaultConfig()
	b, m, f := &c.Backend, &c.Mem, &c.Prefetch
	for _, x := range []field{
		{"L1ISizeBytes", &c.L1ISizeBytes, d.L1ISizeBytes, 1, noCeiling, refuse},
		{"L1IWays", &c.L1IWays, d.L1IWays, 1, maxTableEntries, refuse},
		// A line holds at least one instruction: the FTQ splits fetch
		// blocks into lines of this size.
		{"LineBytes", &c.LineBytes, d.LineBytes, isa.InstrBytes, maxTableEntries, refuse},
		{"L1ITagPorts", &c.L1ITagPorts, d.L1ITagPorts, 1, maxTableEntries, refuse},
		{"PrefetchBufferEntries", &c.PrefetchBufferEntries, 0, 0, maxTableEntries, refuse},
		{"Mem.L2SizeBytes", &m.L2SizeBytes, d.Mem.L2SizeBytes, 1, noCeiling, refuse},
		{"Mem.L2Ways", &m.L2Ways, d.Mem.L2Ways, 1, maxTableEntries, refuse},
		{"Mem.L2HitLatency", &m.L2HitLatency, d.Mem.L2HitLatency, 1, maxLatency, refuse},
		{"Mem.MemLatency", &m.MemLatency, d.Mem.MemLatency, 1, maxLatency, refuse},
		{"Mem.BusCyclesPerLine", &m.BusCyclesPerLine, d.Mem.BusCyclesPerLine, 1, maxLatency, refuse},
		{"FTQEntries", &c.FTQEntries, d.FTQEntries, 1, maxTableEntries, refuse},
		{"FTB.Sets", &c.FTB.Sets, d.FTB.Sets, 1, maxTableEntries, pow2},
		{"FTB.Ways", &c.FTB.Ways, d.FTB.Ways, 1, maxTableEntries, refuse},
		// 31 fits the FTB entry's 5-bit length field, like the paper's.
		{"FTB.MaxBlockInstrs", &c.FTB.MaxBlockInstrs, d.FTB.MaxBlockInstrs, 1, 31, clamp},
		{"FTB.AddrBits", &c.FTB.AddrBits, d.FTB.AddrBits, 1, 64, refuse},
		{"PredictorSize", &c.PredictorSize, d.PredictorSize, 2, maxTableEntries, pow2},
		{"RASEntries", &c.RASEntries, d.RASEntries, 1, maxTableEntries, refuse},
		{"FetchWidth", &c.FetchWidth, d.FetchWidth, 1, maxTableEntries, refuse},
		{"RedirectLatency", &c.RedirectLatency, d.RedirectLatency, 0, maxLatency, refuse},
		{"Backend.ROBSize", &b.ROBSize, d.Backend.ROBSize, 1, maxTableEntries, refuse},
		{"Backend.IssueWidth", &b.IssueWidth, d.Backend.IssueWidth, 1, maxTableEntries, refuse},
		{"Backend.CommitWidth", &b.CommitWidth, d.Backend.CommitWidth, 1, maxTableEntries, refuse},
		{"Backend.IssueWindow", &b.IssueWindow, d.Backend.IssueWindow, 1, maxTableEntries, refuse},
		{"Backend.DecodeLatency", &b.DecodeLatency, d.Backend.DecodeLatency, 0, maxLatency, refuse},
		{"Backend.PipeCap", &b.PipeCap, d.Backend.PipeCap, 1, maxTableEntries, refuse},
		{"Prefetch.NextLinePending", &f.NextLinePending, d.Prefetch.NextLinePending, 1, maxTableEntries, refuse},
		{"Prefetch.Streams", &f.Streams, d.Prefetch.Streams, 1, maxTableEntries, refuse},
		{"Prefetch.StreamDepth", &f.StreamDepth, d.Prefetch.StreamDepth, 1, maxTableEntries, refuse},
		{"Prefetch.FDP.PIQSize", &f.FDP.PIQSize, d.Prefetch.FDP.PIQSize, 1, maxTableEntries, refuse},
		// A negative skip means none, not the default's one entry.
		{"Prefetch.FDP.SkipHead", &f.FDP.SkipHead, 0, 0, maxTableEntries, refuse},
		{"Prefetch.MANA.BudgetBytes", &f.MANA.BudgetBytes, d.Prefetch.MANA.BudgetBytes, 1, maxTableEntries, refuse},
		// A region spans its trigger and at most a 63-bit footprint.
		{"Prefetch.MANA.RegionLines", &f.MANA.RegionLines, d.Prefetch.MANA.RegionLines, 2, 64, clamp},
		{"Prefetch.MANA.QueueSize", &f.MANA.QueueSize, d.Prefetch.MANA.QueueSize, 1, maxTableEntries, refuse},
		{"Prefetch.Shadow.DecodeQueue", &f.Shadow.DecodeQueue, d.Prefetch.Shadow.DecodeQueue, 1, maxTableEntries, refuse},
		{"Prefetch.Shadow.TargetQueue", &f.Shadow.TargetQueue, d.Prefetch.Shadow.TargetQueue, 1, maxTableEntries, refuse},
	} {
		v := *x.v
		if v < 0 || v == 0 && x.lo > 0 {
			v = x.def
		}
		v = max(v, x.lo)
		if v > x.hi {
			if x.rule != clamp {
				// The clone keeps the row, which points into c, from
				// escaping: otherwise every caller's Config moves to the heap.
				return fmt.Errorf("core: %s %d is above its ceiling %d", strings.Clone(x.name), v, x.hi)
			}
			v = x.hi
		}
		if x.rule == pow2 {
			v = 1 << bits.Len(uint(v-1))
		}
		*x.v = v
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("core: LineBytes %d not a power of two", c.LineBytes)
	}
	m.LineBytes = c.LineBytes
	if err := c.l1i().Check(); err != nil {
		return fmt.Errorf("core: L1-I: %w", err)
	}
	if err := m.Check(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	for _, t := range []struct {
		name string
		n    int
	}{
		{"L1-I lines", c.L1ISizeBytes / c.LineBytes},
		{"L2 lines", m.L2SizeBytes / c.LineBytes},
		// Both FTB factors are bounded, so their product cannot overflow.
		{"FTB sets x ways", c.FTB.Sets * c.FTB.Ways},
	} {
		if t.n > maxTableEntries {
			return fmt.Errorf("core: %s %d is above the %d-entry table ceiling", t.name, t.n, maxTableEntries)
		}
	}
	if c.PredictorName == "" {
		c.PredictorName = d.PredictorName
	}
	if c.PredictorHistBits == 0 {
		c.PredictorHistBits = d.PredictorHistBits
	}
	// Gshare, alone or in the hybrid, keeps at most 32 bits of global
	// history; a local predictor's history table holds 16 bits per branch.
	maxHist := uint(32)
	if c.PredictorName == "local" {
		maxHist = 16
	}
	c.PredictorHistBits = min(c.PredictorHistBits, maxHist)
	switch f.Kind {
	case "", PrefetchNone:
		f.Kind = PrefetchNone
	case PrefetchNextLine, PrefetchStream, PrefetchFDP, PrefetchMANA, PrefetchShadow:
	default:
		return fmt.Errorf("core: unknown prefetcher %q", f.Kind)
	}
	if f.FDP.CPF > prefetch.CPFOptimistic {
		return fmt.Errorf("core: unknown cache-probe-filtering mode %d", f.FDP.CPF)
	}
	// The machine builds only its own prefetcher, and a bimodal or static
	// predictor keeps no history (nor, when static, any table): the fields
	// it never reads take their defaults, once bounded above, so that
	// machines differing only there share one Config and one JobKey.
	if f.Kind != PrefetchNextLine {
		f.NextLinePending = d.Prefetch.NextLinePending
	}
	if f.Kind != PrefetchStream {
		f.Streams, f.StreamDepth = d.Prefetch.Streams, d.Prefetch.StreamDepth
	}
	if f.Kind != PrefetchFDP {
		f.FDP = d.Prefetch.FDP
	}
	if f.Kind != PrefetchMANA {
		f.MANA = d.Prefetch.MANA
	}
	if f.Kind != PrefetchShadow {
		f.Shadow = d.Prefetch.Shadow
	}
	switch c.PredictorName {
	case "static-taken", "static-nottaken":
		c.PredictorSize = d.PredictorSize
		fallthrough
	case "bimodal":
		c.PredictorHistBits = d.PredictorHistBits
	}
	if c.MaxInstrs == 0 {
		c.MaxInstrs = d.MaxInstrs
	}
	if c.MaxCycles <= 0 {
		// Saturate: past MaxInt64/100 the product wraps, to 0 at 2^62.
		c.MaxCycles = math.MaxInt64
		if c.MaxInstrs <= math.MaxInt64/100 {
			c.MaxCycles = int64(c.MaxInstrs) * 100
		}
	}
	return nil
}
