// Package experiments implements the paper's evaluation: one entry point per
// reconstructed table/figure (E1..E11, documented in ARCHITECTURE.md) plus
// the extension ablations (E12..E16), each returning a text table with the
// same rows/series the paper reports.
//
// Every experiment is a declaration: a Plan (the workload axis crossed with
// configuration axes over a base machine) streamed through the shared
// simulation engine into a stats.Collector, then reduced to its table shape
// (vs-baseline sweep, paired-baseline sweep, long-form metrics, gmean
// footers). Results arrive in completion order with bounded in-flight work;
// the collector re-orders them, so tables are bit-identical whatever the
// worker count, and configurations shared between experiments (e.g. the
// no-prefetch baseline) simulate once. Entry points take a context and
// return errors; nothing in this package panics.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sync"

	"fdip/internal/core"
	"fdip/internal/engine"
	"fdip/internal/prefetch"
	"fdip/internal/program"
	"fdip/internal/stats"
	"fdip/internal/workloads"
)

// Streamer abstracts how a plan's points execute: the in-process engine
// (engine.Engine satisfies this) or a distributed coordinator
// (dist.Coordinator) sharding the plan across worker processes. Whatever the
// implementation, the contract is engine.Stream's: every point delivered
// exactly once, index-tagged, bit-identical to a single-process run.
type Streamer interface {
	Stream(ctx context.Context, p *engine.Plan) iter.Seq2[engine.RunOutcome, error]
}

// Options scales the experiment suite.
type Options struct {
	// Instrs is the committed-instruction budget per simulation.
	Instrs uint64
	// Workloads restricts the suite (nil = all eight benchmarks).
	Workloads []workloads.Workload
	// Workers bounds concurrent simulations (0 = GOMAXPROCS).
	Workers int
	// Progress, when non-nil, receives the engine's typed progress
	// events (delivery is serialised by the engine).
	Progress func(engine.Event)
}

func (o *Options) setDefaults() {
	if o.Instrs == 0 {
		o.Instrs = 1_000_000
	}
	if len(o.Workloads) == 0 {
		o.Workloads = workloads.All()
	}
}

// Runner executes experiment plans on a shared memoising engine.
type Runner struct {
	opts Options
	eng  *engine.Engine
	// streamer executes Collect's plans: the runner's own engine, or in
	// tests a distributed coordinator, which must apply the same per-job
	// instruction budget as Options.Instrs (plans do not bake the budget
	// into their configs).
	streamer Streamer
}

// NewRunner builds a runner (and its engine) for the given options.
func NewRunner(opts Options) *Runner {
	opts.setDefaults()
	r := &Runner{
		opts: opts,
		eng: engine.New(
			engine.WithWorkers(opts.Workers),
			engine.WithInstrBudget(opts.Instrs),
			engine.WithProgress(opts.Progress),
		),
	}
	r.streamer = r.eng
	return r
}

// Engine exposes the underlying engine (for sharing caches or inspecting
// counters).
func (r *Runner) Engine() *engine.Engine { return r.eng }

// Image returns (generating once) the program image for a workload.
func (r *Runner) Image(ctx context.Context, w workloads.Workload) (*program.Image, error) {
	return r.eng.Images().Get(ctx, w.Params)
}

// Collect streams every point of the plan through the engine and gathers the
// results into a workloads x configuration-points collector, failing on the
// first job error. This is the bridge every experiment reduces its table
// from: delivery is completion-order and memory in flight is bounded by the
// worker pool; the collector restores (row, col) order.
func (r *Runner) Collect(ctx context.Context, p *engine.Plan) (*stats.Collector[core.Result], error) {
	c := stats.NewCollector[core.Result](p.Rows(), p.Cols())
	for out, err := range r.streamer.Stream(ctx, p) {
		if err != nil {
			return nil, err
		}
		if out.Err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", out.Job.Name, out.Err)
		}
		row, col := p.RowCol(out.Index)
		if row < 0 {
			// Appended jobs live outside the grid; a collector cannot place
			// them, and silently dropping them would break Complete's
			// accounting the other way. (Nothing in this package panics.)
			return nil, fmt.Errorf("experiments: job %q is outside the plan's workload x config grid (Append'ed jobs cannot be collected)", out.Job.Name)
		}
		c.Put(row, col, out.Result)
	}
	if err := c.Complete(); err != nil {
		return nil, err
	}
	return c, nil
}

// plan starts an experiment plan: the given workloads over base.
func plan(ws []workloads.Workload, base core.Config) *engine.Plan {
	return engine.NewPlan(base).Over(ws...)
}

// baselineConfig is the no-prefetch machine at the given L1-I size.
func baselineConfig(l1iBytes int) core.Config {
	cfg := core.DefaultConfig()
	cfg.L1ISizeBytes = l1iBytes
	cfg.Prefetch.Kind = core.PrefetchNone
	return cfg
}

// schemeConfigs returns the four schemes the headline comparison runs.
func schemeConfigs(l1iBytes int) []core.Config {
	mk := func(kind core.PrefetcherKind, cpf prefetch.CPFMode) core.Config {
		cfg := core.DefaultConfig()
		cfg.L1ISizeBytes = l1iBytes
		cfg.Prefetch.Kind = kind
		cfg.Prefetch.FDP.CPF = cpf
		return cfg
	}
	return []core.Config{
		mk(core.PrefetchNextLine, prefetch.CPFOff),
		mk(core.PrefetchStream, prefetch.CPFOff),
		mk(core.PrefetchFDP, prefetch.CPFOff),
		mk(core.PrefetchFDP, prefetch.CPFConservative),
	}
}

var schemeNames = []string{"nextline", "streambuf", "fdp", "fdp+cpf"}

// schemesAxis is the headline comparison axis at one L1-I size, optionally
// led by the no-prefetch baseline point.
func schemesAxis(l1iBytes int, baseLabel string) engine.Axis {
	cfgs := schemeConfigs(l1iBytes)
	points := make([]engine.NamedConfig, len(cfgs))
	for i, cfg := range cfgs {
		points[i] = engine.Named(schemeNames[i], cfg)
	}
	a := engine.Configs(points...)
	if baseLabel != "" {
		a = a.WithBaseline(baseLabel, baselineConfig(l1iBytes))
	}
	return a
}

// E1Characterization reproduces the benchmark characterisation table:
// footprint, baseline performance, and branch behaviour per workload.
func E1Characterization(ctx context.Context, r *Runner) (*stats.Table, error) {
	t := stats.NewTable("E1: workload characterisation (no-prefetch baseline, 16KB L1-I)",
		"bench", "class", "code KB", "static br", "IPC", "miss/KI", "brMPKI", "cond acc%", "FTB hit%")
	c, err := r.Collect(ctx, plan(r.opts.Workloads, baselineConfig(16*1024)))
	if err != nil {
		return nil, err
	}
	for i, w := range r.opts.Workloads {
		im, err := r.Image(ctx, w)
		if err != nil {
			return nil, err
		}
		res := c.At(i, 0)
		class := "client"
		if w.LargeFootprint {
			class = "server"
		}
		t.AddRow(w.Name, class, im.Size()/1024, im.StaticBranchCount(),
			res.IPC, res.MissPKI, res.MispredictPKI, res.CondAccuracyPct, res.FTBHitRatePct)
	}
	return t, nil
}

// speedupTable builds the per-benchmark % speedup comparison at one cache
// size — the paper's headline figure shape: the scheme axis against the
// shared no-prefetch baseline, with a gmean footer reduced over the rows.
func speedupTable(ctx context.Context, r *Runner, title string, l1iBytes int) (*stats.Table, error) {
	c, err := r.Collect(ctx, plan(r.opts.Workloads, core.DefaultConfig()).
		Axes(schemesAxis(l1iBytes, "base")))
	if err != nil {
		return nil, err
	}
	t := c.TableVsBaseline(title, "bench", schemeNames, 0, speedupCell)
	footer := []interface{}{"gmean"}
	for _, g := range c.ReduceCols(0, core.Result.SpeedupPctOver, stats.GmeanSpeedupPct) {
		footer = append(footer, fmt.Sprintf("%+.1f%%", g))
	}
	t.AddRow(footer...)
	return t, nil
}

// E2SpeedupSmallCache is the headline comparison at a 16KB L1-I.
func E2SpeedupSmallCache(ctx context.Context, r *Runner) (*stats.Table, error) {
	return speedupTable(ctx, r, "E2: % speedup over no-prefetch, 16KB L1-I", 16*1024)
}

// E3SpeedupLargeCache repeats E2 at 32KB, where gains shrink.
func E3SpeedupLargeCache(ctx context.Context, r *Runner) (*stats.Table, error) {
	return speedupTable(ctx, r, "E3: % speedup over no-prefetch, 32KB L1-I", 32*1024)
}

// E4BusUtilization compares bandwidth cost per scheme.
func E4BusUtilization(ctx context.Context, r *Runner) (*stats.Table, error) {
	c, err := r.Collect(ctx, plan(r.opts.Workloads, core.DefaultConfig()).
		Axes(schemesAxis(16*1024, "none")))
	if err != nil {
		return nil, err
	}
	return c.Table("E4: L1↔L2 bus utilisation (%), 16KB L1-I", "bench",
		append([]string{"none"}, schemeNames...),
		func(_, _ int, res core.Result) any { return res.BusUtilPct }), nil
}

// filterVariants are the cache-probe-filtering configurations of E5.
func filterVariants() (names []string, cfgs []core.Config) {
	mk := func(cpf prefetch.CPFMode, remove bool) core.Config {
		cfg := core.DefaultConfig()
		cfg.Prefetch.Kind = core.PrefetchFDP
		cfg.Prefetch.FDP.CPF = cpf
		cfg.Prefetch.FDP.RemoveCPF = remove
		return cfg
	}
	names = []string{"none", "enq-cons", "enq-opt", "remove", "cons+rem", "opt+rem"}
	cfgs = []core.Config{
		mk(prefetch.CPFOff, false),
		mk(prefetch.CPFConservative, false),
		mk(prefetch.CPFOptimistic, false),
		mk(prefetch.CPFOff, true),
		mk(prefetch.CPFConservative, true),
		mk(prefetch.CPFOptimistic, true),
	}
	return names, cfgs
}

// E5CacheProbeFiltering evaluates the paper's filtering mechanisms: speedup
// retained vs bus traffic removed, in long form (one row per workload x
// filter policy).
func E5CacheProbeFiltering(ctx context.Context, r *Runner) (*stats.Table, error) {
	names, cfgs := filterVariants()
	points := make([]engine.NamedConfig, len(cfgs))
	for i, cfg := range cfgs {
		points[i] = engine.Named(names[i], cfg)
	}
	c, err := r.Collect(ctx, plan(r.suiteLarge(), core.DefaultConfig()).
		Axes(engine.Configs(points...).WithBaseline("base", baselineConfig(16*1024))))
	if err != nil {
		return nil, err
	}
	return c.TableLong("E5: FDP cache-probe filtering (large-footprint workloads, 16KB L1-I)",
		[]string{"bench", "filter", "speedup", "bus%", "useful%", "issued/KI"}, 0,
		func(res, base core.Result) []any {
			return []any{speedupCell(res, base), res.BusUtilPct, res.UsefulPct,
				stats.PerKilo(res.PrefetchIssued, res.Committed)}
		}), nil
}

func (r *Runner) suiteLarge() []workloads.Workload {
	var out []workloads.Workload
	for _, w := range r.opts.Workloads {
		if w.LargeFootprint {
			out = append(out, w)
		}
	}
	if len(out) == 0 {
		out = r.opts.Workloads
	}
	return out
}

// knobSweep renders the common "speedup vs knob" figure shape: the knob axis
// over the prefetching base machine, led by the shared 16KB no-prefetch
// baseline, one row per large-footprint workload, each cell reduced from
// (point, baseline).
func knobSweep(ctx context.Context, r *Runner, title string, base core.Config,
	axis engine.Axis, headers []string, cell func(res, base core.Result) any) (*stats.Table, error) {
	c, err := r.Collect(ctx, plan(r.suiteLarge(), base).
		Axes(axis.WithBaseline("base", baselineConfig(16*1024))))
	if err != nil {
		return nil, err
	}
	return c.TableVsBaseline(title, "bench", headers, 0, cell), nil
}

// speedupCell is the baseline-relative speedup reducer most sweeps render.
func speedupCell(res, base core.Result) any {
	return fmt.Sprintf("%+.1f%%", res.SpeedupPctOver(base))
}

// E6FTQSweep shows speedup vs FTQ depth: decoupling depth is what creates
// prefetch opportunity; depth 1 degenerates to a coupled front end.
func E6FTQSweep(ctx context.Context, r *Runner) (*stats.Table, error) {
	sizes := []int{1, 2, 4, 8, 16, 32, 64}
	return knobSweep(ctx, r, "E6: FDP+CPF speedup vs FTQ depth (entries), 16KB L1-I",
		fdpCPF(), engine.Vary("ftq", sizes, func(c *core.Config, n int) { c.FTQEntries = n }),
		intHeaders(sizes), speedupCell)
}

// E7PrefetchBufferSweep sizes the prefetch buffer.
func E7PrefetchBufferSweep(ctx context.Context, r *Runner) (*stats.Table, error) {
	sizes := []int{8, 16, 32, 64, 128}
	return knobSweep(ctx, r, "E7: FDP+CPF speedup vs prefetch buffer entries, 16KB L1-I",
		fdpCPF(), engine.Vary("pfb", sizes, func(c *core.Config, n int) { c.PrefetchBufferEntries = n }),
		intHeaders(sizes), speedupCell)
}

// schemeOnOffAxis is the paired-baseline inner axis: each outer knob value
// runs its own no-prefetch baseline and its FDP+CPF machine.
func schemeOnOffAxis() engine.Axis {
	return engine.Vary("scheme", []bool{false, true}, func(c *core.Config, fdp bool) {
		if fdp {
			c.Prefetch.Kind = core.PrefetchFDP
			c.Prefetch.FDP.CPF = prefetch.CPFConservative
		}
	}).Labeled("none", "fdp+cpf")
}

// pairedKnobSweep renders the "speedup vs knob" figure shape for knobs that
// change the baseline machine too: the knob axis crossed with the on/off
// scheme axis, so each knob value holds its own (baseline, prefetching)
// pair, and each cell is the pair's speedup.
func pairedKnobSweep(ctx context.Context, r *Runner, title string,
	knob engine.Axis, headers []string) (*stats.Table, error) {
	c, err := r.Collect(ctx, plan(r.suiteLarge(), core.DefaultConfig()).
		Axes(knob, schemeOnOffAxis()))
	if err != nil {
		return nil, err
	}
	return c.TablePaired(title, "bench", headers,
		func(res, base core.Result) any { return speedupCell(res, base) }), nil
}

// E8LatencySensitivity grows the memory latency; prefetching hides more of a
// longer latency, so FDP's advantage must grow. Each latency point has its
// own baseline (the knob changes the baseline machine too).
func E8LatencySensitivity(ctx context.Context, r *Runner) (*stats.Table, error) {
	lats := []int{30, 70, 140, 280}
	return pairedKnobSweep(ctx, r, "E8: FDP+CPF speedup vs memory latency (cycles), 16KB L1-I",
		engine.Vary("lat", lats, func(c *core.Config, lat int) { c.Mem.MemLatency = lat }),
		intHeaders(lats))
}

// E9CoverageAccuracy tabulates prefetch quality per scheme, in long form.
func E9CoverageAccuracy(ctx context.Context, r *Runner) (*stats.Table, error) {
	c, err := r.Collect(ctx, plan(r.opts.Workloads, core.DefaultConfig()).
		Axes(schemesAxis(16*1024, "")))
	if err != nil {
		return nil, err
	}
	return c.TableLong("E9: prefetch coverage and accuracy, 16KB L1-I",
		[]string{"bench", "scheme", "coverage%", "cov+partial%", "useful%", "issued/KI"}, -1,
		func(res, _ core.Result) []any {
			return []any{res.CoveragePct, res.PartialPct, res.UsefulPct,
				stats.PerKilo(res.PrefetchIssued, res.Committed)}
		}), nil
}

// E10FTBSweep is the BTB-reach ablation: FDP effectiveness tracks how much
// of the branch working set the FTB holds.
func E10FTBSweep(ctx context.Context, r *Runner) (*stats.Table, error) {
	sets := []int{64, 128, 256, 512, 1024, 2048}
	return knobSweep(ctx, r, "E10: FDP+CPF speedup and FTB hit rate vs FTB sets (4-way), 16KB L1-I",
		fdpCPF(), engine.Vary("ftb", sets, func(c *core.Config, n int) { c.FTB.Sets = n }),
		intHeaders(sets), func(res, base core.Result) any {
			return fmt.Sprintf("%+.1f%%/%.0f%%", res.SpeedupPctOver(base), res.FTBHitRatePct)
		})
}

// E11Ablation checks robustness: direction predictor quality and
// block-oriented vs conventional BTB organisation.
func E11Ablation(ctx context.Context, r *Runner) (*stats.Table, error) {
	mk := func(pred string, blockOriented bool) core.Config {
		cfg := fdpCPF()
		cfg.PredictorName = pred
		cfg.FTB.BlockOriented = blockOriented
		return cfg
	}
	headers := []string{"hybrid", "gshare", "local", "bimodal", "conventional-BTB"}
	c, err := r.Collect(ctx, plan(r.suiteLarge(), core.DefaultConfig()).
		Axes(engine.Configs(
			engine.Named("hybrid", mk("hybrid", true)),
			engine.Named("gshare", mk("gshare", true)),
			engine.Named("local", mk("local", true)),
			engine.Named("bimodal", mk("bimodal", true)),
			engine.Named("conventional-BTB", mk("hybrid", false)),
		)))
	if err != nil {
		return nil, err
	}
	return c.Table("E11: ablations (FDP+CPF, 16KB L1-I): IPC by predictor and BTB organisation",
		"bench", headers, func(_, _ int, res core.Result) any { return res.IPC }), nil
}

// Experiment names one runnable experiment of the suite.
type Experiment struct {
	// ID is the short identifier ("E1".."E16").
	ID string
	// Run produces the experiment's table.
	Run func(context.Context, *Runner) (*stats.Table, error)
}

// Suite returns the reconstructed 1999 evaluation (E1..E11) in order.
func Suite() []Experiment {
	return []Experiment{
		{"E1", E1Characterization},
		{"E2", E2SpeedupSmallCache},
		{"E3", E3SpeedupLargeCache},
		{"E4", E4BusUtilization},
		{"E5", E5CacheProbeFiltering},
		{"E6", E6FTQSweep},
		{"E7", E7PrefetchBufferSweep},
		{"E8", E8LatencySensitivity},
		{"E9", E9CoverageAccuracy},
		{"E10", E10FTBSweep},
		{"E11", E11Ablation},
	}
}

// RunExperiments executes the given experiments concurrently over one shared
// runner (the engine's worker pool bounds total simulation concurrency) and
// returns their tables in the given order. Per-experiment failures are
// joined into the returned error; tables are nil on failure.
func RunExperiments(ctx context.Context, r *Runner, exps []Experiment) ([]*stats.Table, error) {
	tables := make([]*stats.Table, len(exps))
	errs := make([]error, len(exps))
	var wg sync.WaitGroup
	for i, ex := range exps {
		wg.Add(1)
		go func(i int, ex Experiment) {
			defer wg.Done()
			t, err := ex.Run(ctx, r)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", ex.ID, err)
				return
			}
			tables[i] = t
		}(i, ex)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return tables, nil
}

func intHeaders(vals []int) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprint(v)
	}
	return out
}
