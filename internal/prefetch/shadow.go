package prefetch

import "fdip/internal/isa"

// Shadow is a shadow-branch decoder in the style of arXiv:2408.12592: every
// line the fetch engine brings toward the L1-I carries instruction bytes the
// front end has not decoded yet, and among them sit branches the BPU has
// never predicted. The engine queues newly-arriving lines, decodes them off
// the critical path (one line per cycle), and prefills the FTB with the
// direct CTIs it finds — so the BPU's first encounter with that code already
// predicts block boundaries and targets instead of falling through cold.
//
// Decode ground truth comes from the program image (the simulator's stand-in
// for reading raw line bytes). Indirect CTIs and returns carry no static
// target and are skipped, exactly as a hardware shadow decoder must.
// Discovered targets can optionally be prefetched through the shared port.
type Shadow struct {
	port port
	cfg  ShadowConfig

	// decode holds line addresses awaiting shadow decode; targets holds
	// discovered target lines awaiting an idle bus slot.
	decode  lineQueue
	targets lineQueue

	// LinesDecoded counts lines fully scanned; DecodeDrops lines discarded
	// on a full decode queue; Prefills FTB insertions; AlreadyKnown CTIs the
	// FTB already held; IndirectSkipped CTIs with no static target;
	// TargetDrops target-line candidates discarded on a full queue.
	LinesDecoded, DecodeDrops    uint64
	Prefills, AlreadyKnown       uint64
	IndirectSkipped, TargetDrops uint64
}

// ShadowConfig tunes the shadow-branch decoder.
type ShadowConfig struct {
	// DecodeQueue caps lines awaiting shadow decode.
	DecodeQueue int
	// TargetQueue caps discovered-target lines awaiting prefetch issue.
	TargetQueue int
	// PrefetchTargets also prefetches the line holding each newly
	// discovered branch target, on top of prefilling the FTB.
	PrefetchTargets bool
}

// DefaultShadowConfig returns the default decoder with target prefetching on.
func DefaultShadowConfig() ShadowConfig {
	return ShadowConfig{DecodeQueue: 4, TargetQueue: 8, PrefetchTargets: true}
}

// NewShadow creates a shadow-branch decoder. env.FTB and env.Image must be
// non-nil; both queue sizes are taken as given (core.Config.Validate makes
// them positive).
func NewShadow(env Env, cfg ShadowConfig) *Shadow {
	if env.FTB == nil {
		panic("prefetch: Shadow requires an FTB")
	}
	if env.Image == nil {
		panic("prefetch: Shadow requires an image provider")
	}
	return &Shadow{
		port:    port{env: env},
		cfg:     cfg,
		decode:  make(lineQueue, 0, cfg.DecodeQueue),
		targets: make(lineQueue, 0, cfg.TargetQueue),
	}
}

// Name implements Prefetcher.
func (s *Shadow) Name() string { return "shadow" }

// OnDemandAccess implements Prefetcher: a line arriving at the L1-I side (a
// full miss being fetched, or a prefetched line's first use) has shadow
// bytes worth decoding; resident-line hits were decoded when they arrived.
func (s *Shadow) OnDemandAccess(lineAddr uint64, l1Hit, pfbHit bool, now int64) {
	if !l1Hit && !s.decode.offer(lineAddr) {
		s.DecodeDrops++
	}
}

// Tick implements Prefetcher: decode one queued line, then issue at most one
// discovered-target prefetch into an idle bus slot.
func (s *Shadow) Tick(now int64) {
	if len(s.decode) > 0 {
		s.decodeLine(s.decode.pop())
		s.LinesDecoded++
	}
	s.targets.drain(&s.port, now)
}

// decodeLine scans one line's instructions for direct CTIs and prefills the
// FTB with any block the buffer does not already know. Fetch blocks are
// reconstructed line-locally: the first block is assumed to start at the
// line boundary (a hardware shadow decoder cannot see the preceding line
// either), and each CTI starts the next.
func (s *Shadow) decodeLine(line uint64) {
	im := s.port.env.Image()
	ftb := s.port.env.FTB
	blockOriented := ftb.Config().BlockOriented
	blkStart := line
	for pc := line; pc < line+uint64(s.port.env.LineBytes); pc += isa.InstrBytes {
		ins, ok := im.InstrAt(pc)
		if !ok {
			return // ran off the image; nothing decodable remains in the line
		}
		if !ins.IsCTI() {
			continue
		}
		start := blkStart
		blkStart = pc + isa.InstrBytes
		if ins.Kind.IsIndirect() {
			s.IndirectSkipped++ // no static target to prefill
			continue
		}
		// The FTB keys block-oriented entries by block start and
		// conventional entries by the branch address itself.
		key := start
		if !blockOriented {
			key = pc
		}
		if ftb.Peek(key) {
			s.AlreadyKnown++
			continue
		}
		ftb.TrainBlock(start, int(pc-start)/isa.InstrBytes+1, ins.Kind, ins.Target)
		s.Prefills++
		if s.cfg.PrefetchTargets && !s.targets.offer(ins.Target&^uint64(s.port.env.LineBytes-1)) {
			s.TargetDrops++
		}
	}
}

// Idle implements Prefetcher: with no line to decode and no target to
// issue, the engine waits on demand traffic.
func (s *Shadow) Idle() bool { return len(s.decode) == 0 && len(s.targets) == 0 }

// OnSquash implements Prefetcher. Queued lines were genuinely fetched —
// wrong-path or not, their bytes arrived and their branches are real code —
// so redirects invalidate nothing.
func (s *Shadow) OnSquash() {}

// Reset implements Prefetcher: queues emptied, counters zeroed, backing
// arrays retained. The FTB itself is reset by its owner.
func (s *Shadow) Reset() {
	s.decode = s.decode[:0]
	s.targets = s.targets[:0]
	s.LinesDecoded, s.DecodeDrops = 0, 0
	s.Prefills, s.AlreadyKnown = 0, 0
	s.IndirectSkipped, s.TargetDrops = 0, 0
	s.port.stats = PortStats{}
}

// IssueStats implements Prefetcher.
func (s *Shadow) IssueStats() PortStats { return s.port.stats }
