package program

import (
	"fmt"
	"math"
	"math/rand"

	"fdip/internal/isa"
)

// Params controls synthetic program generation. The defaults produce a
// mid-sized program; the named workloads in internal/workloads override the
// knobs per benchmark.
type Params struct {
	// Seed makes generation deterministic.
	Seed int64
	// NumFuncs is the number of functions to generate. The first function
	// is the entry ("dispatcher") function.
	NumFuncs int
	// MeanBlocksPerFunc is the mean basic-block count per function.
	MeanBlocksPerFunc int
	// MeanBlockLen is the mean non-terminator instruction count per block.
	MeanBlockLen int
	// CodeBase is the address of the first instruction. Defaults to
	// 0x40_0000 (a typical text-segment base) when zero.
	CodeBase uint64
	// MaxLoopsPerFunc bounds loop back-edges per function (termination
	// and realism both want a small number).
	MaxLoopsPerFunc int
	// MeanLoopTrip is the mean trip count of loop back-edges.
	MeanLoopTrip int
	// CallFrac is the probability that an interior block ends in a call.
	CallFrac float64
	// CondFrac is the probability that an interior block ends in a
	// forward conditional branch.
	CondFrac float64
	// JumpFrac is the probability that an interior block ends in an
	// unconditional forward jump.
	JumpFrac float64
	// IndirectFrac is the fraction of calls/jumps made indirect (virtual
	// dispatch / switch statements).
	IndirectFrac float64
	// CallSkew shapes callee selection: the callee index is drawn as
	// caller+1 + floor(U^CallSkew * span). Larger values concentrate
	// calls on nearby (hot) functions; 1.0 is uniform.
	CallSkew float64
	// DispatchFanout is the minimum number of call sites in the entry
	// function, which models a server-style dispatch loop.
	DispatchFanout int
	// DispatchTargets is the number of candidate handlers per dispatcher
	// call site. Dispatcher call sites are indirect calls over
	// Zipf-weighted target sets, which is what spreads the dynamic
	// instruction footprint across the program the way request dispatch
	// does in servers. 1 makes dispatcher calls direct (client-style
	// fixed control flow).
	DispatchTargets int
	// DispatchZipf shapes handler popularity at dispatcher call sites:
	// target i gets weight (i+1)^-DispatchZipf. 0 is uniform (maximum
	// footprint churn); larger values concentrate on hot handlers.
	// Negative means "use the default" (0.7).
	DispatchZipf float64
	// IndirectStickiness is the probability an indirect CTI repeats its
	// previous target (temporal burstiness of dispatch). Zero means "use
	// the default" (0.5); set negative for fully independent draws.
	IndirectStickiness float64
	// PatternFrac is the fraction of conditional branches that follow a
	// repeating outcome pattern (history-correlated) rather than biased
	// coin flips. Zero means "use the default" (0.25); negative disables.
	PatternFrac float64
}

// DefaultParams returns a moderate program: roughly 200 functions and a
// ~250KB code footprint.
func DefaultParams() Params {
	return Params{
		Seed:               1,
		NumFuncs:           200,
		MeanBlocksPerFunc:  10,
		MeanBlockLen:       5,
		CodeBase:           0x40_0000,
		MaxLoopsPerFunc:    2,
		MeanLoopTrip:       8,
		CallFrac:           0.18,
		CondFrac:           0.38,
		JumpFrac:           0.08,
		IndirectFrac:       0.08,
		CallSkew:           2.5,
		DispatchFanout:     24,
		DispatchTargets:    16,
		DispatchZipf:       0.7,
		IndirectStickiness: 0.5,
		PatternFrac:        0.25,
	}
}

func (p *Params) setDefaults() {
	d := DefaultParams()
	if p.NumFuncs <= 0 {
		p.NumFuncs = d.NumFuncs
	}
	if p.MeanBlocksPerFunc <= 0 {
		p.MeanBlocksPerFunc = d.MeanBlocksPerFunc
	}
	if p.MeanBlockLen <= 0 {
		p.MeanBlockLen = d.MeanBlockLen
	}
	if p.CodeBase == 0 {
		p.CodeBase = d.CodeBase
	}
	if p.MaxLoopsPerFunc < 0 {
		p.MaxLoopsPerFunc = 0
	}
	if p.MeanLoopTrip <= 0 {
		p.MeanLoopTrip = d.MeanLoopTrip
	}
	if p.CallSkew <= 0 {
		p.CallSkew = d.CallSkew
	}
	if p.DispatchFanout <= 0 {
		p.DispatchFanout = d.DispatchFanout
	}
	if p.DispatchTargets <= 0 {
		p.DispatchTargets = d.DispatchTargets
	}
	if p.DispatchZipf < 0 {
		p.DispatchZipf = d.DispatchZipf
	}
	if p.IndirectStickiness == 0 {
		p.IndirectStickiness = d.IndirectStickiness
	} else if p.IndirectStickiness < 0 {
		p.IndirectStickiness = 0
	} else if p.IndirectStickiness > 1 {
		p.IndirectStickiness = 1
	}
	if p.PatternFrac == 0 {
		p.PatternFrac = d.PatternFrac
	} else if p.PatternFrac < 0 {
		p.PatternFrac = 0
	} else if p.PatternFrac > 1 {
		p.PatternFrac = 1
	}
}

// terminator kinds used during planning; isa.Nop stands for "pure
// fall-through, no terminator instruction".
type blockPlan struct {
	bodyLen   int
	term      isa.Kind
	targetBlk int   // cond/jump primary target (block index)
	extraBlks []int // indirect jump extra targets
	calleeFn  int   // direct call target (function index)
	calleeFns []int // indirect call target set
	behav     Behavior

	addr uint64 // filled during layout
}

type funcPlan struct {
	blocks []blockPlan
	pad    int
}

// Generate builds a synthetic program image from p through New, so the
// result is validated; generation fails only on nonsensical parameters.
func Generate(p Params) (*Image, error) {
	p.setDefaults()
	if p.CodeBase%isa.InstrBytes != 0 {
		return nil, fmt.Errorf("program: CodeBase %#x not aligned", p.CodeBase)
	}
	rng := rand.New(rand.NewSource(p.Seed))

	plans := make([]funcPlan, p.NumFuncs)
	for fi := range plans {
		plans[fi] = planFunc(rng, p, fi)
	}

	// Layout pass: assign addresses, build the function directory and count
	// the modelled terminators.
	addr := p.CodeBase
	funcs := make([]Func, p.NumFuncs)
	modelled := 0
	for fi := range plans {
		entry := addr
		for bi := range plans[fi].blocks {
			b := &plans[fi].blocks[bi]
			b.addr = addr
			n := b.bodyLen
			if b.term != isa.Nop {
				n++
			}
			if b.behav.Model != ModelNone {
				modelled++
			}
			addr += uint64(n) * isa.InstrBytes
		}
		addr += uint64(plans[fi].pad) * isa.InstrBytes // padding stays isa.Nop, code's zero value
		funcs[fi] = Func{Name: fmt.Sprintf("f%04d", fi), Entry: entry, NumInstrs: int((addr - entry) / isa.InstrBytes)}
	}
	code := make([]isa.Instr, (addr-p.CodeBase)/isa.InstrBytes)
	behav := make([]Branch, 0, modelled)

	// Emission pass: resolve targets and write instructions.
	regs := newRegAllocator(rng)
	for fi := range plans {
		fp := &plans[fi]
		blockAddr := func(bi int) uint64 { return fp.blocks[bi].addr }
		for bi := range fp.blocks {
			b := &fp.blocks[bi]
			w := isa.WordIndex(b.addr, p.CodeBase)
			for k := 0; k < b.bodyLen; k++ {
				code[w] = regs.bodyInstr(rng)
				w++
			}
			if b.term == isa.Nop {
				continue
			}
			ins := isa.Instr{Kind: b.term}
			bh := b.behav
			switch b.term {
			case isa.CondBranch, isa.Jump:
				ins.Target = blockAddr(b.targetBlk)
			case isa.Call:
				ins.Target = funcs[b.calleeFn].Entry
			case isa.IndirectCall:
				bh.Targets = make([]uint64, len(b.calleeFns))
				for j, cf := range b.calleeFns {
					bh.Targets[j] = funcs[cf].Entry
				}
			case isa.IndirectJump:
				bh.Targets = make([]uint64, 0, len(b.extraBlks)+1)
				bh.Targets = append(bh.Targets, blockAddr(b.targetBlk))
				for _, eb := range b.extraBlks {
					bh.Targets = append(bh.Targets, blockAddr(eb))
				}
			case isa.Ret:
				// no static target
			}
			code[w] = ins
			if bh.Model != ModelNone {
				behav = append(behav, Branch{Word: int32(w), Behavior: bh})
			}
		}
	}

	im, err := New(p.CodeBase, funcs[0].Entry, code, behav, funcs)
	if err != nil {
		return nil, fmt.Errorf("program: generator produced invalid image: %w", err)
	}
	return im, nil
}

// planFunc decides the control-flow skeleton of one function.
func planFunc(rng *rand.Rand, p Params, fi int) funcPlan {
	isEntry := fi == 0
	nBlocks := geometric(rng, p.MeanBlocksPerFunc)
	if nBlocks < 2 {
		nBlocks = 2
	}
	if isEntry {
		// The dispatcher needs room for its fan-out call sites.
		min := p.DispatchFanout + 2
		if nBlocks < min {
			nBlocks = min
		}
	}
	blocks := make([]blockPlan, nBlocks)
	for bi := range blocks {
		blocks[bi].bodyLen = geometric(rng, p.MeanBlockLen)
		if blocks[bi].bodyLen < 1 {
			blocks[bi].bodyLen = 1
		}
		blocks[bi].term = isa.Nop
	}

	// Loop back-edges: tail block conditionally branches back to an
	// earlier head. Avoid block 0 as tail and keep edges disjoint. The
	// dispatcher gets none: a loop there would trap the walker in a
	// slice of the dispatch sites and collapse the dynamic footprint.
	nLoops := 0
	if !isEntry && p.MaxLoopsPerFunc > 0 && nBlocks >= 3 {
		nLoops = rng.Intn(p.MaxLoopsPerFunc + 1)
	}
	usedTail := map[int]bool{}
	for l := 0; l < nLoops; l++ {
		tail := 1 + rng.Intn(nBlocks-2) // never the last block
		if usedTail[tail] {
			continue
		}
		usedTail[tail] = true
		span := 1 + rng.Intn(3) // short loops dominate real code
		head := tail - span
		if head < 0 {
			head = 0
		}
		b := &blocks[tail]
		b.term = isa.CondBranch
		b.targetBlk = head
		b.behav = Behavior{Model: ModelLoop, MeanTrip: 1 + geometric(rng, p.MeanLoopTrip)}
	}

	// Interior terminators.
	callSites := 0
	for bi := 0; bi < nBlocks-1; bi++ {
		b := &blocks[bi]
		if b.term != isa.Nop {
			continue // already a loop tail
		}
		r := rng.Float64()
		callFrac := p.CallFrac
		if isEntry {
			callFrac = 0.55 // dispatcher is call-dense
		}
		switch {
		case r < callFrac && fi < p.NumFuncs-1:
			planCall(rng, p, fi, b)
			callSites++
		case r < callFrac+p.CondFrac:
			planCond(rng, p, nBlocks, bi, b)
		case r < callFrac+p.CondFrac+p.JumpFrac:
			planJump(rng, p, nBlocks, bi, b)
		default:
			// pure fall-through block
		}
	}
	// Guarantee the dispatcher's fan-out even if the dice were unlucky.
	if isEntry && fi < p.NumFuncs-1 {
		for bi := 0; bi < nBlocks-1 && callSites < p.DispatchFanout; bi++ {
			b := &blocks[bi]
			if b.term != isa.Nop {
				continue
			}
			planCall(rng, p, fi, b)
			callSites++
		}
	}
	blocks[nBlocks-1].term = isa.Ret
	return funcPlan{blocks: blocks, pad: rng.Intn(4)}
}

func planCall(rng *rand.Rand, p Params, fi int, b *blockPlan) {
	if fi == 0 && p.DispatchTargets > 1 {
		// Dispatcher call sites are indirect calls over many handlers,
		// spread uniformly across the program with Zipf weights: a hot
		// head plus a long cold tail, the request-dispatch pattern that
		// gives server workloads their huge instruction footprints.
		n := p.DispatchTargets
		if max := p.NumFuncs - 1; n > max {
			n = max
		}
		set := make([]int, 0, n)
		weights := make([]float64, 0, n)
		for len(set) < n {
			set = append(set, pickCallee(rng, p, fi, 1.0))
			weights = append(weights, math.Pow(float64(len(set)), -p.DispatchZipf))
		}
		b.term = isa.IndirectCall
		b.calleeFns = set
		b.behav = Behavior{Model: ModelIndirect, Weights: weights, Sticky: p.IndirectStickiness}
		return
	}
	// Interior functions call with locality skew; the dispatcher (in
	// DispatchTargets == 1 client mode) calls uniformly but directly.
	skew := p.CallSkew
	if fi == 0 {
		skew = 1.0
	}
	if rng.Float64() < p.IndirectFrac {
		n := 2 + rng.Intn(3)
		set := make([]int, 0, n)
		for len(set) < n {
			set = append(set, pickCallee(rng, p, fi, skew))
		}
		b.term = isa.IndirectCall
		b.calleeFns = set
		b.behav = Behavior{Model: ModelIndirect, Sticky: p.IndirectStickiness}
		return
	}
	b.term = isa.Call
	b.calleeFn = pickCallee(rng, p, fi, skew)
}

func planCond(rng *rand.Rand, p Params, nBlocks, bi int, b *blockPlan) {
	b.term = isa.CondBranch
	b.targetBlk = forwardTarget(rng, nBlocks, bi, 8)
	if rng.Float64() < p.PatternFrac {
		// History-correlated branch: a short repeating outcome string.
		n := 2 + rng.Intn(6) // 2..7
		pat := uint32(rng.Intn(1 << n))
		b.behav = Behavior{Model: ModelPattern, Pattern: pat, PatternLen: uint8(n)}
		return
	}
	b.behav = Behavior{Model: ModelBiased, TakenProb: sampleBias(rng)}
}

func planJump(rng *rand.Rand, p Params, nBlocks, bi int, b *blockPlan) {
	if rng.Float64() < p.IndirectFrac && bi+3 < nBlocks {
		// switch-style indirect jump over 2-5 forward targets
		n := 2 + rng.Intn(4)
		b.term = isa.IndirectJump
		b.targetBlk = forwardTarget(rng, nBlocks, bi, 6)
		for k := 1; k < n; k++ {
			b.extraBlks = append(b.extraBlks, forwardTarget(rng, nBlocks, bi, 6))
		}
		b.behav = Behavior{Model: ModelIndirect, Sticky: p.IndirectStickiness}
		return
	}
	b.term = isa.Jump
	b.targetBlk = forwardTarget(rng, nBlocks, bi, 4)
}

// forwardTarget picks a block strictly after bi, within a window.
func forwardTarget(rng *rand.Rand, nBlocks, bi, window int) int {
	span := nBlocks - 1 - bi
	if span > window {
		span = window
	}
	return bi + 1 + rng.Intn(span)
}

// pickCallee selects a callee with index > fi; near callees are hot under
// skew > 1, uniform at skew == 1.
func pickCallee(rng *rand.Rand, p Params, fi int, skew float64) int {
	span := p.NumFuncs - 1 - fi
	if span <= 0 {
		return fi
	}
	u := rng.Float64()
	off := int(math.Pow(u, skew) * float64(span))
	if off >= span {
		off = span - 1
	}
	return fi + 1 + off
}

// sampleBias draws a per-branch taken probability from a bimodal mixture:
// most branches are strongly biased one way, a small minority is mixed.
// Because the walker draws outcomes independently per instance, a branch's
// entropy here is a *floor* on its mispredict rate, so the biased modes are
// kept tight to match the predictability of real integer codes. Each product
// is rounded on its own (float64(...)), so no architecture fuses it into a
// multiply-add and every GOARCH generates the same image.
func sampleBias(rng *rand.Rand) float64 {
	r := rng.Float64()
	switch {
	case r < 0.47: // mostly not taken
		return 0.01 + float64(0.09*rng.Float64())
	case r < 0.90: // mostly taken
		return 0.90 + float64(0.09*rng.Float64())
	default: // mixed, hard to predict
		return 0.30 + float64(0.40*rng.Float64())
	}
}

// geometric draws a geometric-ish value with the given mean, capped to keep
// pathological tails out of generated code.
func geometric(rng *rand.Rand, mean int) int {
	if mean <= 1 {
		return 1
	}
	p := 1.0 / float64(mean)
	n := 1
	for rng.Float64() > p && n < mean*8 {
		n++
	}
	return n
}

// regAllocator produces block-body instructions with realistic register
// dependence chains: sources preferentially read recently written registers.
type regAllocator struct {
	recent [8]uint8
	pos    int
}

func newRegAllocator(rng *rand.Rand) *regAllocator {
	ra := &regAllocator{}
	for i := range ra.recent {
		ra.recent[i] = uint8(1 + rng.Intn(isa.NumRegs-1))
	}
	return ra
}

func (ra *regAllocator) src(rng *rand.Rand) uint8 {
	if rng.Float64() < 0.6 {
		return ra.recent[rng.Intn(len(ra.recent))]
	}
	return uint8(1 + rng.Intn(isa.NumRegs-1))
}

func (ra *regAllocator) dst(rng *rand.Rand) uint8 {
	d := uint8(1 + rng.Intn(isa.NumRegs-1))
	ra.recent[ra.pos] = d
	ra.pos = (ra.pos + 1) % len(ra.recent)
	return d
}

func (ra *regAllocator) bodyInstr(rng *rand.Rand) isa.Instr {
	r := rng.Float64()
	var k isa.Kind
	switch {
	case r < 0.50:
		k = isa.ALU
	case r < 0.72:
		k = isa.Load
	case r < 0.84:
		k = isa.Store
	case r < 0.90:
		k = isa.Mul
	case r < 0.95:
		k = isa.FPU
	default:
		k = isa.Nop
	}
	ins := isa.Instr{Kind: k, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg}
	switch k {
	case isa.ALU, isa.Mul, isa.FPU:
		ins.Dst = ra.dst(rng)
		ins.Src1 = ra.src(rng)
		if rng.Float64() < 0.7 {
			ins.Src2 = ra.src(rng)
		}
	case isa.Load:
		ins.Dst = ra.dst(rng)
		ins.Src1 = ra.src(rng)
	case isa.Store:
		ins.Src1 = ra.src(rng)
		ins.Src2 = ra.src(rng)
	}
	return ins
}
