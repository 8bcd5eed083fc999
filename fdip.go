// Package fdip is the public API of the fetch-directed instruction
// prefetching simulator — a from-scratch Go reproduction of "Fetch Directed
// Instruction Prefetching" (Reinman, Calder, Austin; MICRO-32, 1999).
//
// The library simulates a decoupled front end (branch predictor + fetch
// target queue + fetch engine) over synthetic but behaviourally calibrated
// program images, with fetch-directed prefetching, cache-probe filtering,
// and the paper's baselines (tagged next-line prefetching, stream buffers).
// Two engines from the paper's successors ride alongside: MANA-style
// spatial-region prefetching (PrefetchMANA) and shadow-branch decoding that
// prefills the FTB ahead of the predictor (PrefetchShadow).
//
// The surface is the simulator and the local sweep API. Engine is a
// context-aware, worker-pooled, memoising executor. A Plan declares a
// parameter space from composable axes — workloads (Over), knob sweeps
// (Vary), explicit named machines (Configs) — and expands it lazily, so a
// million-point sweep never materializes a million-entry slice.
// Engine.Stream ranges over a plan's outcomes as each job completes, with
// in-flight work bounded by the worker pool and an early break cancelling
// everything outstanding. Identical jobs simulate once (the engine
// coalesces duplicates), and results are bit-identical whatever the worker
// count or delivery order, so sweeps scale across cores without changing
// the science.
//
// Quick start — one run:
//
//	eng := fdip.NewEngine(fdip.WithWorkers(8), fdip.WithInstrBudget(1_000_000))
//	cfg := fdip.DefaultConfig()
//	cfg.Prefetch.Kind = fdip.PrefetchFDP
//	res, _ := eng.Run(context.Background(), fdip.Job{Workload: "gcc", Config: cfg})
//	fmt.Println(res)
//
// A declarative sweep streams a knob axis across the calibrated suite,
// delivering each point as it finishes:
//
//	plan := fdip.NewPlan(cfg).
//		Over(fdip.Workloads()...).
//		Axes(fdip.Vary("ftq", []int{4, 8, 16, 32}, func(c *fdip.Config, n int) {
//			c.FTQEntries = n
//		}).WithBaseline("base", fdip.DefaultConfig()))
//	for out, err := range eng.Stream(ctx, plan) {
//		if err != nil {
//			break // context cancelled
//		}
//		fmt.Println(out.Job.Name, out.Result.IPC)
//	}
//
// Sweep collects a job slice into one outcome per job, in job order:
//
//	outs, _ := eng.Sweep(ctx, jobs)
//	fdip.WriteOutcomesJSON(os.Stdout, outs) // machine-readable export
//
// Progress streams as typed events (WithProgress), runs honour context
// cancellation and deadlines, and failures return as errors. NewSimulator
// steps one machine cycle by cycle.
//
// Sweeps that leave the process — sharded over worker processes,
// checkpointed, queued and cache-served by a long-running service — are the
// cmd/fdipd daemon's job; its contract is its command line and HTTP
// protocol, not this package. ARCHITECTURE.md documents both, along with the
// reproduced evaluation.
package fdip

import (
	"context"
	"io"

	"fdip/internal/core"
	"fdip/internal/engine"
	"fdip/internal/oracle"
	"fdip/internal/prefetch"
	"fdip/internal/program"
	"fdip/internal/workloads"
)

// Re-exported configuration and result types. These aliases are the public
// names; the internal packages are implementation detail.
type (
	// Config describes the simulated machine.
	Config = core.Config
	// Result is the measurement snapshot of a run.
	Result = core.Result
	// PrefetcherKind selects a prefetch scheme.
	PrefetcherKind = core.PrefetcherKind
	// PrefetchConfig tunes the selected scheme.
	PrefetchConfig = core.PrefetchConfig
	// FDPConfig tunes fetch-directed prefetching.
	FDPConfig = prefetch.FDPConfig
	// CPFMode selects the cache-probe-filtering policy.
	CPFMode = prefetch.CPFMode
	// MANAConfig tunes MANA-style spatial-region prefetching.
	MANAConfig = prefetch.MANAConfig
	// ShadowConfig tunes the shadow-branch decoder.
	ShadowConfig = prefetch.ShadowConfig
	// ProgramParams control synthetic program generation.
	ProgramParams = program.Params
	// Image is a generated static program.
	Image = program.Image
	// Workload is a named, calibrated benchmark.
	Workload = workloads.Workload
)

// Engine API types. The Engine is the package's concurrent executor; see the
// package comment for the model.
type (
	// Engine runs jobs on a bounded worker pool with memoisation.
	Engine = engine.Engine
	// Job names one simulation point: a Config over a named Workload or
	// explicit ProgramParams, with an oracle seed.
	Job = engine.Job
	// Plan is a declarative, lazily expanded parameter space: workloads
	// crossed with configuration axes. Stream it, or collect it point by
	// point.
	Plan = engine.Plan
	// Axis is one dimension of a Plan (a Vary knob sweep or a Configs
	// point list).
	Axis = engine.Axis
	// NamedConfig is an explicit, named machine configuration — a point of
	// a Configs axis.
	NamedConfig = engine.NamedConfig
	// RunOutcome pairs a job with its result (or error) inside a sweep or
	// stream; Index is its position in plan enumeration (job-slice) order.
	RunOutcome = engine.RunOutcome
	// EngineStats snapshots engine counters (simulations, cache hits).
	EngineStats = engine.Stats
	// Event is a typed progress notification.
	Event = engine.Event
	// EventKind classifies progress events.
	EventKind = engine.EventKind
	// Option configures NewEngine.
	Option = engine.Option
	// ImageCache memoises program generation; share one across engines
	// with WithImageCache.
	ImageCache = engine.ImageCache
)

// Progress event kinds.
const (
	EventJobStarted = engine.EventJobStarted
	EventJobDone    = engine.EventJobDone
	EventJobCached  = engine.EventJobCached
	EventJobFailed  = engine.EventJobFailed
)

// NewEngine builds a concurrent simulation engine. Defaults: GOMAXPROCS
// workers, per-job instruction budgets, no progress sink, a private image
// cache.
func NewEngine(opts ...Option) *Engine { return engine.New(opts...) }

// WithWorkers bounds concurrent simulations. n <= 0 means GOMAXPROCS.
func WithWorkers(n int) Option { return engine.WithWorkers(n) }

// WithInstrBudget overrides every job's committed-instruction budget
// (Config.MaxInstrs). Zero leaves job configs untouched.
func WithInstrBudget(n uint64) Option { return engine.WithInstrBudget(n) }

// WithProgress streams typed progress events to fn; delivery is serialised.
func WithProgress(fn func(Event)) Option { return engine.WithProgress(fn) }

// WithImageCache shares a program-image cache between engines.
func WithImageCache(c *ImageCache) Option { return engine.WithImageCache(c) }

// NewImageCache builds an empty shareable image cache.
func NewImageCache() *ImageCache { return engine.NewImageCache() }

// NewPlan starts a declarative sweep plan over the given base machine.
// Compose it with Over (workloads), Axes (Vary/Configs), Set (fixed
// overrides), and Append (explicit jobs), then run it with Engine.Stream or
// enumerate it with Plan.Jobs.
func NewPlan(base Config) *Plan { return engine.NewPlan(base) }

// FromJobs wraps an explicit job slice as a Plan, so Stream can run it.
func FromJobs(jobs ...Job) *Plan { return engine.FromJobs(jobs...) }

// Vary builds a plan axis that sweeps one configuration knob over vals,
// labelling each point "name=value".
func Vary[T any](name string, vals []T, apply func(*Config, T)) Axis {
	return engine.Vary(name, vals, apply)
}

// Configs builds a plan axis of explicit full machines (each point replaces
// the plan's base configuration wholesale).
func Configs(points ...NamedConfig) Axis { return engine.Configs(points...) }

// Named pairs a label with a full machine configuration for a Configs axis.
func Named(name string, cfg Config) NamedConfig { return engine.Named(name, cfg) }

// WriteResultJSON writes one Result as indented JSON.
func WriteResultJSON(w io.Writer, res Result) error { return engine.WriteResultJSON(w, res) }

// WriteOutcomesJSON writes sweep outcomes as an indented JSON array — the
// machine-readable form of a whole sweep for downstream tooling.
func WriteOutcomesJSON(w io.Writer, outs []RunOutcome) error {
	return engine.WriteOutcomesJSON(w, outs)
}

// Prefetch scheme names.
const (
	PrefetchNone     = core.PrefetchNone
	PrefetchNextLine = core.PrefetchNextLine
	PrefetchStream   = core.PrefetchStream
	PrefetchFDP      = core.PrefetchFDP
	PrefetchMANA     = core.PrefetchMANA
	PrefetchShadow   = core.PrefetchShadow
)

// Cache-probe-filtering modes.
const (
	CPFOff          = prefetch.CPFOff
	CPFConservative = prefetch.CPFConservative
	CPFOptimistic   = prefetch.CPFOptimistic
)

// DefaultConfig returns the paper-inspired baseline machine (16KB 2-way
// L1-I, 32-entry FTQ, hybrid predictor, 512x4 FTB, no prefetching).
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultProgramParams returns a moderate synthetic program description.
func DefaultProgramParams() ProgramParams { return program.DefaultParams() }

// GenerateProgram builds a synthetic program image.
func GenerateProgram(p ProgramParams) (*Image, error) { return program.Generate(p) }

// Workloads returns the calibrated benchmark suite (stand-ins for the
// paper's SPEC95/C++ programs).
func Workloads() []Workload { return workloads.All() }

// WorkloadByName finds a benchmark by name ("gcc", "vortex", ...).
func WorkloadByName(name string) (Workload, bool) { return workloads.ByName(name) }

// Simulator exposes cycle-level control for callers that want to observe the
// machine mid-run (examples, visualisation, tests).
type Simulator struct {
	p *core.Processor
}

// NewSimulator assembles a machine without running it.
func NewSimulator(cfg Config, im *Image, seed int64) (*Simulator, error) {
	p, err := core.New(cfg, im, oracle.NewWalker(im, seed))
	if err != nil {
		return nil, err
	}
	return &Simulator{p: p}, nil
}

// Step advances one cycle.
func (s *Simulator) Step() { s.p.Step() }

// StepN advances n cycles.
func (s *Simulator) StepN(n int) {
	for i := 0; i < n; i++ {
		s.p.Step()
	}
}

// Cycle returns the current cycle number.
func (s *Simulator) Cycle() int64 { return s.p.Now() }

// Committed returns instructions retired so far.
func (s *Simulator) Committed() uint64 { return s.p.Committed() }

// Run finishes the simulation per the config's limits and returns results.
func (s *Simulator) Run() Result { return s.p.Run() }

// RunContext is Run with cooperative cancellation.
func (s *Simulator) RunContext(ctx context.Context) (Result, error) { return s.p.RunContext(ctx) }

// Snapshot returns measurements at the current cycle without stopping.
func (s *Simulator) Snapshot() Result { return s.p.Finalize() }

// Version identifies the library release. In 6.0.0 an Image is compact and
// immutable, and its Code and Behav fields and its Validate, End and
// Contains methods are gone. Migration: Code[i] is InstrAt(Base + 4*i);
// End() is Base + Size(); Contains(addr) is InstrAt(addr)'s ok for an
// aligned addr; a behaviour record is BehaviorAt(addr), or Record(addr) in
// place; and GenerateProgram validates every image it returns.
const Version = "6.0.0"
