package engine

import (
	"context"
	"sync"

	"fdip/internal/core"
	"fdip/internal/oracle"
	"fdip/internal/program"
)

// machinePool recycles core.Processors, each paired with the oracle walker
// that drives it, for one exact validated configuration. Construction is the
// expensive part of a simulation point (caches, predictor tables, the FTQ
// and ROB — megabytes of backing arrays per machine), and the layer-wide
// Reset contract makes a recycled machine observationally identical to a
// fresh one, so sweeps check machines out, reset them and their walkers onto
// the next job's image and seed, and return them instead of constructing per
// job. The walker rides along because a fresh one costs per point what its
// image costs: a state table and an RNG.
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
	resident *machine

	// pool is the overflow tier for concurrent checkouts beyond the slot.
	pool sync.Pool
}

// machine is one pooled processor and the walker that feeds it.
type machine struct {
	proc   *core.Processor
	walker *oracle.Walker
}

// get checks out a machine walking im from seed, resetting a recycled one
// (processor and walker both) or constructing on first use. fresh reports
// which path was taken (for the engine's machine counters and the
// steady-state zero-allocation gate).
func (mp *machinePool) get(im *program.Image, seed int64) (m *machine, fresh bool, err error) {
	mp.mu.Lock()
	m, mp.resident = mp.resident, nil
	mp.mu.Unlock()
	if m == nil {
		if v := mp.pool.Get(); v != nil {
			m = v.(*machine)
		}
	}
	if m != nil {
		m.walker.Reset(im, seed)
		m.proc.Reset(im, m.walker)
		return m, false, nil
	}
	w := oracle.NewWalker(im, seed)
	p, err := core.New(mp.cfg, im, w)
	if err != nil {
		return nil, true, err
	}
	return &machine{proc: p, walker: w}, true, nil
}

// put returns a machine to the pool, preferring the eviction-resistant slot.
// The machine may be in any state — including a run abandoned mid-flight by
// cancellation — because get resets it before the next checkout.
func (mp *machinePool) put(m *machine) {
	mp.mu.Lock()
	if mp.resident == nil {
		mp.resident = m
		mp.mu.Unlock()
		return
	}
	mp.mu.Unlock()
	mp.pool.Put(m)
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
