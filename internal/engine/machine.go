package engine

import (
	"fdip/internal/core"
	"fdip/internal/oracle"
	"fdip/internal/program"
)

// machine is one worker slot's processor and the oracle walker that feeds
// it. Each slot keeps the machine its last job ran on, so an engine holds
// at most Workers machines whatever the mix of configurations. The layer-wide
// Reset contract makes a reset machine observationally identical to a fresh
// one, so a job whose configuration matches the slot's machine resets it
// instead of constructing: that saves the build (about 0.1 ms) and keeps the
// walker's state table, the L2's set chunks and the other backing arrays warm.
// A mismatch drops the old machine and builds the job's; a build costs about
// a hundredth of a 20k-instruction point, so keeping idle machines for other
// configurations would buy little and pin their memory.
type machine struct {
	// cfg is the validated configuration the machine was built with; a job
	// reuses the machine only when its own validated config equals it.
	cfg    core.Config
	proc   *core.Processor
	walker *oracle.Walker
}

// machineFor returns a machine for cfg walking im from seed: m itself, reset,
// when it was built with cfg, else a fresh one (m is then dropped). m may be
// nil (an empty slot) and may be in any state, including a run abandoned
// mid-flight by cancellation, because Reset restores pristine state.
func (e *Engine) machineFor(m *machine, cfg core.Config, im *program.Image, seed int64) (*machine, error) {
	fresh := m == nil || m.cfg != cfg
	if fresh {
		w := oracle.NewWalker(im, seed)
		p, err := core.New(cfg, im, w)
		if err != nil {
			return nil, err
		}
		m = &machine{cfg: cfg, proc: p, walker: w}
	} else {
		m.walker.Reset(im, seed)
		m.proc.Reset(im, m.walker)
	}
	e.mu.Lock()
	if fresh {
		e.stats.MachinesBuilt++
	} else {
		e.stats.MachinesReused++
	}
	e.mu.Unlock()
	return m, nil
}
