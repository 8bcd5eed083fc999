// Package engine is the concurrent simulation engine behind the public fdip
// API: a worker-pooled, memoising, context-aware executor for batches of
// simulation jobs.
//
// An Engine owns a bounded set of worker slots, each holding the machine
// (processor and oracle walker) its last simulation ran on, and two memos
// of one singleflight keep-first cache type (memo.go): program images (each
// distinct program.Params generates once, even under concurrent demand) and
// results, keyed on JobKey (program params, validated config, oracle seed).
// A slot's machine is reset for a job of the same validated config and
// rebuilt for any other, so an engine holds at most one machine per worker
// whatever the config mix. Identical jobs therefore simulate exactly once
// regardless of how many goroutines — or how many entries of one Sweep —
// request them, and every simulation is deterministic in its key, so results
// are bit-identical whether the pool runs one worker or many. The result
// memo's type, ResultCache, is also the cross-sweep cache the dist
// coordinator and the sweep service share.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"fdip/internal/core"
	"fdip/internal/program"
	"fdip/internal/workloads"
)

// Job names one simulation point: a machine configuration over a program
// (a named workload or explicit generation params) with an oracle seed.
// Exactly one of Workload and Params must be set.
type Job struct {
	// Name labels the job in outcomes and progress events. Defaulted to
	// the workload name (or a params digest) when empty.
	Name string `json:"name,omitempty"`
	// Config describes the simulated machine. It is validated (and its
	// zero fields defaulted) by the engine before running.
	Config core.Config `json:"config"`
	// Workload names a calibrated benchmark from the workloads package.
	Workload string `json:"workload,omitempty"`
	// Params generates a custom program instead of a named workload.
	Params *program.Params `json:"params,omitempty"`
	// Seed drives the oracle walker (branch outcomes). Zero means the
	// workload's calibrated seed, or 1 for Params jobs.
	Seed int64 `json:"seed,omitempty"`
}

// RunOutcome pairs a job with its result (or error) inside a sweep.
type RunOutcome struct {
	// Job is the job as resolved by the engine (name and seed filled in).
	Job Job `json:"job"`
	// Index is the job's position in the originating plan's enumeration
	// order (equivalently, its index in a Sweep's job slice). Stream
	// delivers outcomes in completion order; Index is what collectors and
	// reducers re-order or group by.
	Index int `json:"index"`
	// Result holds the measurements; zero-valued when Err is non-nil.
	Result core.Result `json:"result"`
	// Err is the job's failure, nil on success. (JSON encodes its
	// message; see WireOutcome.)
	Err error `json:"-"`
	// Cached reports that the result was served from the memo cache (or
	// joined an in-flight identical simulation) rather than simulated anew.
	Cached bool `json:"cached"`
	// Elapsed is wall time spent obtaining the result.
	Elapsed time.Duration `json:"elapsed_ns"`
	// CyclesPerSec is the simulation throughput (simulated cycles per
	// second of simulation wall time, measured after a worker slot and
	// the program image were acquired) of a freshly simulated job — the
	// kernel-speed metric performance work tracks. Zero for cached or
	// failed outcomes.
	CyclesPerSec float64 `json:"cycles_per_sec,omitempty"`
}

// Stats is a snapshot of engine counters.
type Stats struct {
	// Simulations counts actual (non-memoised) completed simulations.
	Simulations int `json:"simulations"`
	// CacheHits counts runs served from the result cache or merged into
	// an in-flight identical simulation.
	CacheHits int `json:"cache_hits"`
	// Failures counts runs that returned an error.
	Failures int `json:"failures"`
	// MachinesBuilt counts processor constructions; MachinesReused counts
	// simulations whose worker slot already held a machine of the job's
	// exact validated config, which was reset instead of rebuilt. A sweep
	// whose consecutive jobs share a config reuses; one that alternates
	// configs across more than Workers slots rebuilds.
	MachinesBuilt  int `json:"machines_built"`
	MachinesReused int `json:"machines_reused"`
	// SimulatedCycles and SimSeconds aggregate, over all fresh simulations,
	// the simulated cycle counts and the wall time spent inside the
	// simulation proper — the fleet-wide numerator and denominator of
	// CyclesPerSec.
	SimulatedCycles int64   `json:"simulated_cycles"`
	SimSeconds      float64 `json:"sim_seconds"`
}

// CyclesPerSec returns the aggregate simulation throughput (simulated
// cycles per wall-clock second across every fresh simulation), or 0 before
// any simulation completes.
func (s Stats) CyclesPerSec() float64 {
	if s.SimSeconds <= 0 {
		return 0
	}
	return float64(s.SimulatedCycles) / s.SimSeconds
}

// Engine executes simulation jobs on a bounded worker pool with memoisation.
// All methods are safe for concurrent use.
type Engine struct {
	workers  int
	instrs   uint64
	progress func(Event)
	images   *ImageCache

	// slots holds one entry per worker: the machine that worker's last
	// simulation ran on, or nil (see machine.go). Taking an entry is taking
	// a worker slot.
	slots chan *machine

	// results is the singleflight result memo.
	results ResultCache

	mu    sync.Mutex
	stats Stats

	emitMu sync.Mutex
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers bounds concurrent simulations. n <= 0 means GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(e *Engine) { e.workers = n }
}

// WithInstrBudget overrides every job's committed-instruction budget
// (Config.MaxInstrs), re-deriving the cycle cap. Zero leaves job configs
// untouched.
func WithInstrBudget(n uint64) Option {
	return func(e *Engine) { e.instrs = n }
}

// WithProgress streams typed progress events to fn. The engine serialises
// calls, so fn needs no locking of its own. A nil fn disables progress.
func WithProgress(fn func(Event)) Option {
	return func(e *Engine) { e.progress = fn }
}

// WithImageCache shares a (possibly pre-warmed) image cache between engines.
// A nil cache leaves the engine's private cache in place.
func WithImageCache(c *ImageCache) Option {
	return func(e *Engine) {
		if c != nil {
			e.images = c
		}
	}
}

// New builds an engine. Defaults: GOMAXPROCS workers, per-job instruction
// budgets, no progress sink, a private image cache.
func New(opts ...Option) *Engine {
	e := &Engine{images: NewImageCache()}
	for _, opt := range opts {
		opt(e)
	}
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	e.slots = make(chan *machine, e.workers)
	for range e.workers {
		e.slots <- nil
	}
	return e
}

// Workers returns the worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// Images returns the engine's image cache (for sharing or pre-warming).
func (e *Engine) Images() *ImageCache { return e.images }

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Run executes one job, honouring ctx, and returns its measurements.
// Identical jobs (same program, config, and seed) are memoised.
func (e *Engine) Run(ctx context.Context, job Job) (core.Result, error) {
	out := e.runJob(ctx, job)
	return out.Result, out.Err
}

// Sweep executes every job, in parallel up to the worker bound, and returns
// one outcome per job in job order. Per-job failures land in the outcome's
// Err; Sweep itself only returns an error on a stream-level failure — ctx
// cancelled or expired, or a panicking job — in which case unfinished jobs
// carry that error. Results are independent of the worker count: each job is
// deterministic in its key and duplicates are coalesced by the memo cache.
//
// Sweep is the ordered collector over Stream: it materializes one outcome
// per job, so for spaces too large to hold, range over Stream with a Plan
// instead.
func (e *Engine) Sweep(ctx context.Context, jobs []Job) ([]RunOutcome, error) {
	outs := make([]RunOutcome, len(jobs))
	seen := make([]bool, len(jobs))
	var terminal error
	for out, err := range e.StreamJobs(ctx, jobs) {
		if err != nil {
			terminal = err // ctx death or a panicking job; unfinished jobs are filled below
			break
		}
		outs[out.Index] = out
		seen[out.Index] = true
	}
	if terminal == nil {
		terminal = ctx.Err()
	}
	if terminal != nil {
		for i, ok := range seen {
			if !ok {
				outs[i] = RunOutcome{Job: jobs[i], Index: i, Err: terminal}
			}
		}
		return outs, terminal
	}
	return outs, nil
}

// resolve fills in a job's program params, seed, and display name.
func resolve(job Job) (Job, program.Params, error) {
	var params program.Params
	switch {
	case job.Workload != "" && job.Params != nil:
		return job, params, fmt.Errorf("engine: job %q sets both Workload and Params", job.Name)
	case job.Workload != "":
		w, ok := workloads.ByName(job.Workload)
		if !ok {
			return job, params, fmt.Errorf("engine: unknown workload %q", job.Workload)
		}
		params = w.Params
		if job.Seed == 0 {
			job.Seed = w.Seed
		}
		if job.Name == "" {
			job.Name = w.Name
		}
	case job.Params != nil:
		params = *job.Params
		if job.Seed == 0 {
			job.Seed = 1
		}
		if job.Name == "" {
			job.Name = fmt.Sprintf("params(funcs=%d,seed=%d)", params.NumFuncs, params.Seed)
		}
	default:
		return job, params, fmt.Errorf("engine: job %q names no program (set Workload or Params)", job.Name)
	}
	return job, params, nil
}

// runJob resolves, memoises, and executes one job.
func (e *Engine) runJob(ctx context.Context, job Job) RunOutcome {
	start := time.Now()
	fail := func(err error) RunOutcome {
		e.mu.Lock()
		e.stats.Failures++
		e.mu.Unlock()
		out := RunOutcome{Job: job, Err: err, Elapsed: time.Since(start)}
		e.emit(Event{Kind: EventJobFailed, Job: job, Err: err, Elapsed: out.Elapsed})
		return out
	}

	job, key, err := ResolveJob(job, e.instrs)
	if err != nil {
		return fail(err)
	}

	var simDur time.Duration
	res, shared, err := e.results.do(ctx, key, func() (core.Result, error) {
		res, d, err := e.simulate(ctx, job, key)
		if err == nil {
			simDur = d
			e.mu.Lock()
			e.stats.Simulations++
			e.stats.SimulatedCycles += res.Cycles
			e.stats.SimSeconds += d.Seconds()
			e.mu.Unlock()
		}
		return res, err
	})
	if err != nil {
		return fail(err)
	}
	out := RunOutcome{Job: job, Result: res, Cached: shared, Elapsed: time.Since(start)}
	if shared {
		e.mu.Lock()
		e.stats.CacheHits++
		e.mu.Unlock()
		e.emit(Event{Kind: EventJobCached, Job: job, Result: &out.Result, Elapsed: out.Elapsed})
		return out
	}
	if s := simDur.Seconds(); s > 0 {
		out.CyclesPerSec = float64(res.Cycles) / s
	}
	e.emit(Event{Kind: EventJobDone, Job: job, Result: &out.Result, Elapsed: out.Elapsed})
	return out
}

// simulate runs the job under a worker slot, on the slot's machine reset
// when it has the job's config and on a freshly built one otherwise. The
// slot gets its machine back whatever the outcome, since Reset restores
// pristine state even from a cancellation-abandoned run, except after a
// panic: then the slot goes back empty, so a machine whose run panicked is
// never reused. The returned duration covers only the simulation proper
// (machine set-up and run), excluding the wait for a worker slot and image
// generation, so CyclesPerSec reflects kernel speed even when a sweep
// queues jobs.
func (e *Engine) simulate(ctx context.Context, job Job, key JobKey) (core.Result, time.Duration, error) {
	m, err := e.acquire(ctx)
	if err != nil {
		return core.Result{}, 0, err
	}
	kept := m // what the slot gets back; nil while the machine is in use
	defer func() { e.release(kept) }()
	im, err := e.images.Get(ctx, key.params)
	if err != nil {
		return core.Result{}, 0, err
	}
	e.emit(Event{Kind: EventJobStarted, Job: job})
	start := time.Now()
	kept = nil
	m, err = e.machineFor(m, key.cfg, im, job.Seed)
	if err != nil {
		return core.Result{}, 0, err
	}
	res, err := m.proc.RunContext(ctx)
	kept = m
	return res, time.Since(start), err
}

// acquire takes a worker slot and its machine, abandoning the wait on
// cancellation.
func (e *Engine) acquire(ctx context.Context) (*machine, error) {
	select {
	case m := <-e.slots:
		return m, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// release gives a worker slot back with the machine it now holds.
func (e *Engine) release(m *machine) { e.slots <- m }

// emit serialises progress-event delivery.
func (e *Engine) emit(ev Event) {
	if e.progress == nil {
		return
	}
	e.emitMu.Lock()
	defer e.emitMu.Unlock()
	e.progress(ev)
}

// ImageCache memoises program generation: each distinct params vector
// generates exactly once, even under concurrent demand (followers of an
// in-flight generation wait rather than duplicating the work). Safe for
// concurrent use and shareable between engines via WithImageCache; the zero
// value is ready to use.
type ImageCache struct {
	memo[program.Params, *program.Image]
}

// NewImageCache builds an empty cache.
func NewImageCache() *ImageCache { return new(ImageCache) }

// Get returns the image for params, generating it on first use.
func (c *ImageCache) Get(ctx context.Context, params program.Params) (*program.Image, error) {
	im, _, err := c.do(ctx, params, func() (*program.Image, error) { return program.Generate(params) })
	return im, err
}

// Len reports how many images the cache holds or is generating.
func (c *ImageCache) Len() int { return c.len() }
