package core

import (
	"context"
	"fmt"
	"math"

	"fdip/internal/backend"
	"fdip/internal/bpred"
	"fdip/internal/btb"
	"fdip/internal/cache"
	"fdip/internal/frontend"
	"fdip/internal/ftq"
	"fdip/internal/isa"
	"fdip/internal/memsys"
	"fdip/internal/oracle"
	"fdip/internal/pipe"
	"fdip/internal/prefetch"
	"fdip/internal/program"
	"fdip/internal/stats"
)

// Processor is the assembled machine.
type Processor struct {
	cfg Config
	im  *program.Image

	l1i  *cache.Cache
	pfb  *cache.PrefetchBuffer
	hier *memsys.Hierarchy
	ftb  *btb.TargetBuffer
	dir  bpred.Predictor
	ras  *bpred.RAS
	q    *ftq.Queue
	bpu  *frontend.BPU
	fe   *frontend.FetchEngine
	be   *backend.Backend
	pf   prefetch.Prefetcher

	now int64

	// fillFn is the pre-bound completion callback, so Step makes zero heap
	// allocations in steady state.
	fillFn func(*memsys.Transfer)

	// ftqOcc is the sampled FTQ occupancy distribution (Result.FTQOccP90);
	// occSamples, ftqOccSum and robOccSum give the two occupancy means.
	ftqOcc                           *stats.HistogramSketch
	occSamples, ftqOccSum, robOccSum uint64

	// commit-side counters gathered via the backend's OnCommitRange hook
	condBranches, ctisCommitted uint64
	committedByKind             [isa.NumKinds]uint64

	lastProgressCycle int64
	lastProgressCount uint64
}

// occSampleShift sets the occupancy-sampling cadence: FTQ and ROB occupancy
// are sampled together once every 2^occSampleShift = 64 cycles, on cycles
// divisible by 64. A shared cadence keeps the two comparable, and a sparse
// one keeps them exact under cycle-skipping (the scheduler bulk-adds the
// samples an idle stretch would have produced).
const occSampleShift = 6

// progressWindow is the deadlock-detection horizon: a run burning this many
// cycles without committing is reported as an error. The cycle-skip
// scheduler never jumps past the end of the current window, so detection
// fires on exactly the same cycle as under per-cycle stepping.
const progressWindow = 2_000_000

// New assembles a processor over the program image and oracle walker.
func New(cfg Config, im *program.Image, walker *oracle.Walker) (*Processor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dir, err := bpred.New(cfg.PredictorName, cfg.PredictorSize, cfg.PredictorHistBits)
	if err != nil {
		return nil, err
	}
	p := &Processor{cfg: cfg, im: im, dir: dir}
	p.l1i = cache.New(cfg.l1i())
	p.pfb = cache.NewPrefetchBuffer(cfg.PrefetchBufferEntries, cfg.LineBytes)
	p.hier = memsys.New(cfg.Mem)
	p.ftb = btb.New(cfg.FTB)
	p.ras = bpred.NewRAS(cfg.RASEntries)
	p.q = ftq.New(cfg.FTQEntries, cfg.LineBytes)
	p.bpu = frontend.NewBPU(p.ftb, p.dir, p.ras, p.q, im.Entry, cfg.FTB.MaxBlockInstrs)
	p.be = backend.New(cfg.Backend)
	p.be.OnCommitRange = p.onCommitRange

	env := prefetch.Env{
		L1I: p.l1i, PFB: p.pfb, Hier: p.hier, FTQ: p.q, FTB: p.ftb,
		// An indirection, not p.im itself: Reset swaps the image under a
		// pooled machine and the engine must follow.
		Image:     func() *program.Image { return p.im },
		LineBytes: cfg.LineBytes,
	}
	switch cfg.Prefetch.Kind {
	case PrefetchNone:
		p.pf = prefetch.NewNone()
	case PrefetchNextLine:
		p.pf = prefetch.NewNextLine(env, cfg.Prefetch.NextLinePending)
	case PrefetchStream:
		p.pf = prefetch.NewStreamBuffers(env, cfg.Prefetch.Streams, cfg.Prefetch.StreamDepth)
	case PrefetchFDP:
		p.pf = prefetch.NewFDP(env, cfg.Prefetch.FDP)
	case PrefetchMANA:
		p.pf = prefetch.NewMANA(env, cfg.Prefetch.MANA)
	case PrefetchShadow:
		p.pf = prefetch.NewShadow(env, cfg.Prefetch.Shadow)
	}

	// The fetch engine writes each uop once, directly into the backend's
	// arena; the backend sizes the arena to max in-flight and its own
	// backpressure (Accept) bounds allocation.
	p.fe = frontend.NewFetchEngine(im, walker, p.q, p.be.Arena(), p.l1i, p.pfb, p.hier,
		cfg.FetchWidth, p.pf.OnDemandAccess, cfg.PerfectL1I)

	// Width-1 integer buckets: every occupancy 0..FTQEntries has its own
	// exactly representable bucket and upper edge.
	p.ftqOcc = stats.NewHistogramSketch(0, float64(cfg.FTQEntries+1), cfg.FTQEntries+1)
	p.fillFn = p.fill
	return p, nil
}

// Reset restores the assembled machine to its just-constructed state over a
// (possibly different) program image and oracle walker, retaining every
// allocated backing array. The configuration is fixed at construction, so a
// reset machine is only valid for jobs with the identical validated Config.
//
// The contract is pristine-machine semantics: after Reset the processor is
// observationally indistinguishable from New(cfg, im, walker) — every table
// cold, every queue empty, every counter zero, the clock at cycle 0 — and it
// must hold from *any* prior state, including a run abandoned mid-flight by
// context cancellation. The differential harness in internal/simtest
// enforces the equivalence end to end; per-component tests enforce it layer
// by layer.
func (p *Processor) Reset(im *program.Image, walker *oracle.Walker) {
	p.im = im
	p.l1i.Reset()
	p.pfb.Reset()
	p.hier.Reset()
	p.ftb.Reset()
	p.dir.Reset()
	p.ras.Reset()
	p.q.Reset()
	p.bpu.Reset(im.Entry)
	p.be.Reset()
	p.pf.Reset()
	p.fe.Reset(im, walker)
	p.now = 0
	p.ftqOcc.Reset()
	p.occSamples, p.ftqOccSum, p.robOccSum = 0, 0, 0
	p.condBranches, p.ctisCommitted = 0, 0
	p.committedByKind = [isa.NumKinds]uint64{}
	p.lastProgressCycle, p.lastProgressCount = 0, 0
}

// Now returns the current cycle.
func (p *Processor) Now() int64 { return p.now }

// Committed returns retired instruction count.
func (p *Processor) Committed() uint64 { return p.be.Committed }

// onCommit trains predictor and FTB with architecturally retired CTIs.
// onCommitRange walks the arena range the backend committed this cycle —
// one indirect call per cycle instead of one per instruction.
func (p *Processor) onCommitRange(first uint32, n int) {
	ar := p.be.Arena()
	ai := first
	for i := 0; i < n; i++ {
		p.onCommit(ar.At(ai))
		ai = ar.Next(ai)
	}
}

func (p *Processor) onCommit(u *pipe.Uop) {
	p.committedByKind[u.Instr.Kind]++
	if !u.Instr.IsCTI() {
		return
	}
	p.ctisCommitted++
	if u.Instr.Kind == isa.CondBranch {
		p.condBranches++
		p.dir.Commit(u.PC, u.HistCP, u.ActualTaken)
	}
	p.ftb.TrainBlock(u.BlockStart, u.BlockLen, u.Instr.Kind, p.trainTarget(u))
}

// trainTarget picks the taken-target stored in the FTB for a resolved CTI.
func (p *Processor) trainTarget(u *pipe.Uop) uint64 {
	if u.Instr.Kind.IsIndirect() {
		return u.ActualNextPC // last observed dynamic target
	}
	return u.Instr.Target
}

// fill routes one completed transfer: demand fills (and late-merged
// prefetches) go to the L1-I, pure prefetches to the prefetch buffer.
func (p *Processor) fill(tr *memsys.Transfer) {
	if tr.Prefetch && !tr.DemandMerged {
		p.pfb.Insert(tr.Line)
	} else {
		p.l1i.Fill(tr.Line, tr.Prefetch)
	}
}

// Step advances the machine one cycle. It allocates nothing in steady state:
// memory completions drain through the pooled callback path, and fetched
// uops land in the processor-owned reusable buffer.
func (p *Processor) Step() {
	now := p.now

	// 1. Memory completions: demand fills go to the L1-I, pure prefetches
	// to the prefetch buffer.
	p.hier.DrainCompleted(now, p.fillFn)

	// 2. Backend: execute, resolve, commit.
	if u := p.be.Tick(now); u != nil {
		p.q.Squash()
		p.pf.OnSquash()
		p.bpu.RepairAfterMispredict(u.Instr.Kind, u.HistCP, u.RASCP, u.PC, u.ActualTaken)
		// Resolve-time training closes the FTB learning loop quickly
		// (commit training alone would lag by the ROB depth).
		if u.Instr.IsCTI() {
			p.ftb.TrainBlock(u.BlockStart, u.BlockLen, u.Instr.Kind, p.trainTarget(u))
		}
		p.bpu.Redirect(u.ActualNextPC, now+int64(p.cfg.RedirectLatency))
		p.fe.Redirect()
	}

	// 3. Fetch: demand access + uop delivery. Fetch writes each uop once
	// into the shared arena; only the (first, n) index range is handed to
	// the decode pipe — no uop is ever copied.
	if first, n := p.fe.Tick(now, p.be.Accept()); n > 0 {
		p.be.Deliver(first, n, now)
	}

	// 4. BPU: one fetch-block prediction.
	p.bpu.Tick(now)

	// 5. Prefetch engine.
	p.pf.Tick(now)

	if now&(1<<occSampleShift-1) == 0 {
		p.sampleOcc(p.q.Len(), p.be.ROBOccupancy(), 1)
	}
	p.now++
}

// skipIdle fast-forwards the clock over cycles that are provably uneventful:
// every component either reports the next cycle it could act (a memory
// completion, a fetch stall lifting, a backend operand turning ready, the
// BPU's redirect resume) or is blocked on one of those events, and the
// prefetcher is idle. The clock jumps straight to the earliest such cycle,
// and the per-cycle counters the skipped ticks would have bumped —
// stall/idle cycles, BPU full-queue stalls, occupancy samples — are added
// in bulk, so results are bit-identical to per-cycle stepping. No component
// acts inside a jump: when any could act this cycle the method returns
// without effect.
func (p *Processor) skipIdle() {
	now := p.now
	target := int64(math.MaxInt64)

	// Fetch engine: acts this cycle unless a demand miss is outstanding,
	// decode is backpressured, or the FTQ is empty.
	stallUntil, stalled := p.fe.StallEvent()
	backendFull := false
	switch {
	case stalled:
		if stallUntil <= now {
			return
		}
		target = stallUntil
	case p.be.Accept() <= 0:
		// Unblocked only by a decode-pipe drain — a backend event below.
		backendFull = true
	case p.q.Head() != nil:
		return // fetch performs a demand access this cycle
	default:
		// Empty FTQ: refilled only by the BPU (which would feed fetch the
		// very next cycle) or by a redirect (a backend event).
	}

	// BPU: NextWork reports its schedule — the redirect resume while
	// quiesced, "now" with queue room, never while the queue is full (the
	// queue only drains through fetch progress or a redirect, both tracked
	// above). A BPU that could predict this cycle is busy.
	bpuWork := p.bpu.NextWork(now)
	switch {
	case bpuWork == now:
		return
	case bpuWork != math.MaxInt64:
		target = min(target, bpuWork)
	}

	if !p.pf.Idle() {
		return
	}
	if e := p.be.NextEvent(now); e <= now {
		return
	} else {
		target = min(target, e)
	}
	target = min(target, p.hier.NextCompletion())

	// Never jump past the run's cycle cap or the deadlock-detection
	// window, so both keep firing on exactly the cycle they would under
	// per-cycle stepping.
	target = min(target, p.cfg.MaxCycles, p.lastProgressCycle+progressWindow)
	if target <= now {
		return
	}
	n := uint64(target - now)

	// Bulk-account the per-cycle counters the skipped ticks would have
	// bumped, replicating each tick's own priority order.
	switch {
	case stalled:
		p.fe.StallCycles += n
	case backendFull:
		p.fe.BackendFull += n
	default:
		p.fe.IdleNoFTQ += n
	}
	if bpuWork == math.MaxInt64 {
		// Ready against a full queue: every skipped Tick would have
		// counted a full-queue stall.
		p.bpu.FullStalls += n
	}
	if k := occSamplesIn(now, target); k > 0 {
		p.sampleOcc(p.q.Len(), p.be.ROBOccupancy(), k)
	}
	p.now = target
}

// sampleOcc records k identical occupancy samples of the FTQ and ROB.
func (p *Processor) sampleOcc(ftq, rob int, k uint64) {
	p.ftqOcc.AddN(float64(ftq), k)
	p.occSamples += k
	p.ftqOccSum += uint64(ftq) * k
	p.robOccSum += uint64(rob) * k
}

// occSamplesIn counts the occupancy sample points (cycles divisible by
// 2^occSampleShift) in the half-open cycle range [from, to).
func occSamplesIn(from, to int64) uint64 {
	const mask = int64(1)<<occSampleShift - 1
	first := (from + mask) &^ mask
	if first >= to {
		return 0
	}
	return uint64((to-1-first)>>occSampleShift) + 1
}

// Run executes until MaxInstrs commit or MaxCycles elapse. It returns the
// final measurements. A simulator deadlock panics; callers that want an
// error (and cancellation) should use RunContext.
func (p *Processor) Run() Result {
	res, err := p.RunContext(context.Background())
	if err != nil {
		panic(err.Error())
	}
	return res
}

// RunNaive executes the run with strict per-cycle stepping — no idle
// skipping. It is the reference semantics of the event-scheduled kernel:
// RunContext must produce a bit-identical Result from the same initial
// state. Exposed for the differential and fuzzing harnesses; sweeps should
// use Run or RunContext, which are much faster.
func (p *Processor) RunNaive() Result {
	for p.be.Committed < p.cfg.MaxInstrs && p.now < p.cfg.MaxCycles {
		p.Step()
	}
	return p.Finalize()
}

// ctxPollCycles is the simulated-cycle cadence of cooperative-cancellation
// polls in RunContext: the context is checked whenever at least this many
// cycles have elapsed since the last check (with an iteration-count
// backstop for step-heavy stretches where cycles accrue slowly). Polling on
// cycle progress keeps timeouts prompt in both kernel regimes — an
// iteration can retire one cycle or a multi-thousand-cycle jump.
const ctxPollCycles = 1 << 16

// RunContext is Run with cooperative cancellation: the loop polls ctx on
// simulated-cycle progress (every >=2^16 cycles, or every 1024 iterations,
// whichever comes first) and returns ctx.Err() on cancellation or deadline
// expiry. A simulator deadlock (no commit progress) is returned as an error
// instead of panicking.
//
// The loop is event-scheduled: after each stepped cycle it asks every
// component for its next interesting cycle and fast-forwards idle stretches
// (fetch stalled on a miss, FTQ full, backend waiting on operands, next
// memory completion cycles away) in one jump. Results are bit-identical to
// stepping every cycle; only wall-clock time changes.
func (p *Processor) RunContext(ctx context.Context) (Result, error) {
	done := ctx.Done()
	pollAt := p.now + ctxPollCycles
	var iter uint64
	for p.be.Committed < p.cfg.MaxInstrs && p.now < p.cfg.MaxCycles {
		p.Step()
		if p.be.Committed < p.cfg.MaxInstrs {
			p.skipIdle()
		}
		if err := p.progressErr(); err != nil {
			return Result{}, err
		}
		iter++
		if done != nil && (iter&1023 == 0 || p.now >= pollAt) {
			pollAt = p.now + ctxPollCycles
			select {
			case <-done:
				return Result{}, ctx.Err()
			default:
			}
		}
	}
	return p.Finalize(), nil
}

// progressErr reports a simulator deadlock — the machine burning cycles
// without committing — as an error.
func (p *Processor) progressErr() error {
	const window = progressWindow
	if p.now-p.lastProgressCycle < window {
		return nil
	}
	if p.be.Committed == p.lastProgressCount {
		return fmt.Errorf("core: no commit progress between cycles %d and %d (committed=%d, ftq=%d, rob=%d)",
			p.lastProgressCycle, p.now, p.be.Committed, p.q.Len(), p.be.ROBOccupancy())
	}
	p.lastProgressCycle = p.now
	p.lastProgressCount = p.be.Committed
	return nil
}
