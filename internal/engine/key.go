package engine

import (
	"fdip/internal/core"
	"fdip/internal/program"
)

// JobKey is the engine's memo identity: an opaque, comparable value that is
// equal for two jobs exactly when the engine would memoise them together.
// The key covers the generated program's parameters (the workload identity,
// not its display name), the validated machine configuration, and the
// oracle seed — and nothing else. Display names, plan labels, and
// enumeration indices never participate, so two sweeps whose labels collide
// cannot share entries unless their resolved simulation points are genuinely
// identical, and two sweeps that label the same point differently always do.
// core.Config.Validate is the one normalisation rule, so the validated
// configuration is canonical: two descriptions of one machine (a zeroed
// sub-config and its defaults, an FTB set count and its power-of-two
// round-up) share a key too.
//
// JobKey keys every ResultCache: the engine's own memo, and the cross-sweep
// cache the dist coordinator and the svc service share, so a layer above the
// engine can prove "this exact simulation already ran" without re-running it.
type JobKey struct {
	params program.Params
	cfg    core.Config
	seed   int64
}

// ResolveJob resolves a job exactly as the engine's executor does — display
// name and seed defaulted from the workload registry, configuration
// normalised under the given engine-wide instruction budget (0 leaves the
// job's own budget in place) and validated — and returns the resolved job
// alongside its memo identity. The returned job carries the resolved Name
// and Seed with the job's original Config (so journal fingerprints and wire
// frames keep the job's own bytes); the key holds the validated, canonical
// configuration the simulation would actually run.
func ResolveJob(job Job, instrs uint64) (Job, JobKey, error) {
	job, params, err := resolve(job)
	if err != nil {
		return job, JobKey{}, err
	}
	cfg := WithBudget(job.Config, instrs)
	if err := cfg.Validate(); err != nil {
		return job, JobKey{}, err
	}
	return job, JobKey{params: params, cfg: cfg, seed: job.Seed}, nil
}

// WithBudget applies an instruction budget to cfg (0 leaves cfg as is),
// re-deriving the cycle cap from it. It is the one budget rule: the engine's
// WithInstrBudget, ResolveJob's memo identity and a dist worker's assignments
// all apply it.
func WithBudget(cfg core.Config, instrs uint64) core.Config {
	if instrs != 0 {
		cfg.MaxInstrs = instrs
		cfg.MaxCycles = 0
	}
	return cfg
}

// ResultCache is a result store keyed by simulation identity: each JobKey
// maps to the Result its simulation produced. Entries are immutable — a key
// fully determines its result, so a second Put keeps the first. The engine
// memoises through one, and a service shares one across every sweep it
// coordinates (dist.Options.Cache). Safe for concurrent use; the zero value
// is ready to use. It is unbounded: a Result is a few hundred bytes of
// counters.
type ResultCache struct {
	memo[JobKey, core.Result]
}

// Get returns the stored result for key. A simulation still in flight is a
// miss: Get never waits.
func (c *ResultCache) Get(key JobKey) (core.Result, bool) { return c.get(key) }

// Put stores res under key unless the key already has a result.
func (c *ResultCache) Put(key JobKey, res core.Result) { c.put(key, res) }

// Len reports the number of distinct keys held or in flight.
func (c *ResultCache) Len() int { return c.len() }
