package engine

import (
	"context"
	"sync"

	"fdip/internal/core"
	"fdip/internal/oracle"
	"fdip/internal/program"
)

// machinePool recycles core.Processors for one exact validated
// configuration. Construction is the expensive part of a simulation point
// (caches, predictor tables, the FTQ and ROB — megabytes of backing arrays
// per machine), and the layer-wide Reset contract makes a recycled machine
// observationally identical to a fresh one, so sweeps check machines out,
// reset them onto the next job's image and oracle stream, and return them
// instead of constructing per job.
//
// The pool is two-tier. The resident slot holds exactly one idle machine by
// ordinary pointer, immune to sync.Pool's per-GC eviction: streamed plans
// deal same-config points round-robin, spacing reuses far enough apart that
// a GC between them used to evict the pooled machine and force a rebuild
// (machines_built 66 -> 103 on the full suite). One GC-proof slot per
// configuration bounds that loss to the overflow tier, which stays
// sync.Pool-backed so surplus idle machines of concurrent sweeps are still
// dropped under memory pressure rather than pinned forever.
type machinePool struct {
	// cfg is the validated configuration every pooled machine was built
	// with. It is the pool's identity: machines of different shapes must
	// never mix, so the engine keys its pools by the full comparable Config
	// value — the configuration fingerprint.
	cfg core.Config

	// resident is the bounded eviction-resistant slot (nil when empty).
	mu       sync.Mutex
	resident *core.Processor

	// pool is the overflow tier for concurrent checkouts beyond the slot.
	pool sync.Pool
}

// get checks out a machine for (im, stream), resetting a recycled one or
// constructing on first use. fresh reports which path was taken (for the
// engine's machine counters and the steady-state zero-allocation gate).
func (mp *machinePool) get(im *program.Image, stream oracle.Stream) (p *core.Processor, fresh bool, err error) {
	mp.mu.Lock()
	p, mp.resident = mp.resident, nil
	mp.mu.Unlock()
	if p == nil {
		if v := mp.pool.Get(); v != nil {
			p = v.(*core.Processor)
		}
	}
	if p != nil {
		p.Reset(im, stream)
		return p, false, nil
	}
	p, err = core.New(mp.cfg, im, stream)
	return p, true, err
}

// put returns a machine to the pool, preferring the eviction-resistant slot.
// The machine may be in any state — including a run abandoned mid-flight by
// cancellation — because get resets it before the next checkout.
func (mp *machinePool) put(p *core.Processor) {
	mp.mu.Lock()
	if mp.resident == nil {
		mp.resident = p
		mp.mu.Unlock()
		return
	}
	mp.mu.Unlock()
	mp.pool.Put(p)
}

// machinePoolFor returns the machine pool for the validated configuration,
// creating it on first use. Callers hoist this lookup to once per job (it is
// the config-fingerprint resolution step) and hold the returned handle, so
// the per-checkout path is a single sync.Pool Get with no map access.
// Creating a pool neither fails nor blocks, so no caller context is needed.
func (e *Engine) machinePoolFor(cfg core.Config) *machinePool {
	mp, _, _ := e.pools.do(context.Background(), cfg, func() (*machinePool, error) {
		return &machinePool{cfg: cfg}, nil
	})
	return mp
}

// noteMachine records a checkout in the engine counters.
func (e *Engine) noteMachine(fresh bool) {
	e.mu.Lock()
	if fresh {
		e.stats.MachinesBuilt++
	} else {
		e.stats.MachinesReused++
	}
	e.mu.Unlock()
}
