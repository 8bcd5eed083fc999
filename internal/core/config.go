// Package core assembles the full processor model: decoupled front end,
// memory hierarchy, prefetch engine, and backend, driven by a single cycle
// loop. It is the home of the paper's contribution — fetch-directed
// instruction prefetching as a system — with every design knob the
// evaluation sweeps exposed in Config.
package core

import (
	"fmt"
	"math"

	"fdip/internal/backend"
	"fdip/internal/btb"
	"fdip/internal/cache"
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

// Config is the full machine description.
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
const maxTableEntries = 1 << 20

// Validate normalises and checks the configuration. A cache geometry
// cache.New would refuse, or a table count above maxTableEntries, is an
// error here, so a bad config fails its own run rather than panicking, or
// exhausting memory in, the machine build.
func (c *Config) Validate() error {
	d := DefaultConfig()
	if c.L1ISizeBytes <= 0 {
		c.L1ISizeBytes = d.L1ISizeBytes
	}
	if c.L1IWays <= 0 {
		c.L1IWays = d.L1IWays
	}
	if c.LineBytes <= 0 {
		c.LineBytes = d.LineBytes
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("core: LineBytes %d not a power of two", c.LineBytes)
	}
	if c.L1ITagPorts <= 0 {
		c.L1ITagPorts = d.L1ITagPorts
	}
	if c.PrefetchBufferEntries < 0 {
		c.PrefetchBufferEntries = 0
	}
	c.Mem.LineBytes = c.LineBytes
	if err := c.l1i().Check(); err != nil {
		return fmt.Errorf("core: L1-I: %w", err)
	}
	if err := c.Mem.Check(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.FTQEntries <= 0 {
		c.FTQEntries = d.FTQEntries
	}
	if c.PredictorName == "" {
		c.PredictorName = d.PredictorName
	}
	if c.PredictorSize <= 0 {
		c.PredictorSize = d.PredictorSize
	}
	if c.PredictorHistBits == 0 {
		c.PredictorHistBits = d.PredictorHistBits
	}
	if c.RASEntries <= 0 {
		c.RASEntries = d.RASEntries
	}
	if c.FetchWidth <= 0 {
		c.FetchWidth = d.FetchWidth
	}
	if c.RedirectLatency < 0 {
		c.RedirectLatency = d.RedirectLatency
	}
	switch c.Prefetch.Kind {
	case "", PrefetchNone:
		c.Prefetch.Kind = PrefetchNone
	case PrefetchNextLine, PrefetchStream, PrefetchFDP, PrefetchMANA, PrefetchShadow:
	default:
		return fmt.Errorf("core: unknown prefetcher %q", c.Prefetch.Kind)
	}
	if c.Prefetch.NextLinePending <= 0 {
		c.Prefetch.NextLinePending = d.Prefetch.NextLinePending
	}
	if c.Prefetch.Streams <= 0 {
		c.Prefetch.Streams = d.Prefetch.Streams
	}
	if c.Prefetch.StreamDepth <= 0 {
		c.Prefetch.StreamDepth = d.Prefetch.StreamDepth
	}
	for _, t := range []struct {
		name string
		n    int
	}{
		{"L1-I lines", c.L1ISizeBytes / c.LineBytes},
		{"L2 lines", c.Mem.L2SizeBytes / c.LineBytes},
		{"PrefetchBufferEntries", c.PrefetchBufferEntries},
		{"FTQEntries", c.FTQEntries},
		{"FTB.Sets", c.FTB.Sets},
		{"FTB.Ways", c.FTB.Ways},
		{"PredictorSize", c.PredictorSize},
		{"RASEntries", c.RASEntries},
		{"Backend.ROBSize", c.Backend.ROBSize},
		{"Backend.PipeCap", c.Backend.PipeCap},
		{"Prefetch.NextLinePending", c.Prefetch.NextLinePending},
		{"Prefetch.Streams", c.Prefetch.Streams},
		{"Prefetch.StreamDepth", c.Prefetch.StreamDepth},
		{"Prefetch.FDP.PIQSize", c.Prefetch.FDP.PIQSize},
		{"Prefetch.MANA.BudgetBytes", c.Prefetch.MANA.BudgetBytes},
		{"Prefetch.MANA.QueueSize", c.Prefetch.MANA.QueueSize},
		{"Prefetch.Shadow.DecodeQueue", c.Prefetch.Shadow.DecodeQueue},
		{"Prefetch.Shadow.TargetQueue", c.Prefetch.Shadow.TargetQueue},
	} {
		if t.n > maxTableEntries {
			return fmt.Errorf("core: %s %d is above the %d-entry table ceiling", t.name, t.n, maxTableEntries)
		}
	}
	// Both FTB factors are bounded, so their product cannot overflow.
	if n := c.FTB.Sets * c.FTB.Ways; n > maxTableEntries {
		return fmt.Errorf("core: FTB %d sets x %d ways is above the %d-entry table ceiling", c.FTB.Sets, c.FTB.Ways, maxTableEntries)
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
