package experiments

import (
	"context"
	"strings"
	"testing"

	"fdip/internal/core"
	"fdip/internal/engine"
	"fdip/internal/workloads"
)

// quickOpts keeps experiment tests fast: two workloads, short runs.
func quickOpts() Options {
	gcc, _ := workloads.ByName("gcc")
	db, _ := workloads.ByName("deltablue")
	return Options{Instrs: 40_000, Workloads: []workloads.Workload{gcc, db}}
}

// run simulates workload w under cfg on the runner's engine (with its
// instruction budget), memoised on (workload, config).
func run(ctx context.Context, r *Runner, w workloads.Workload, cfg core.Config) (core.Result, error) {
	return r.Engine().Run(ctx, engine.Job{Workload: w.Name, Config: cfg})
}

// simulations counts the runner's actual (non-memoised) simulations.
func simulations(r *Runner) int { return r.Engine().Stats().Simulations }

func TestRunnerMemoises(t *testing.T) {
	ctx := context.Background()
	r := NewRunner(quickOpts())
	w := quickOpts().Workloads[0]
	cfg := core.DefaultConfig()
	a, err := run(ctx, r, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := simulations(r)
	b, err := run(ctx, r, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if simulations(r) != n {
		t.Error("identical run re-simulated")
	}
	if a != b {
		t.Error("memoised result differs")
	}
	// A different config is a different run.
	cfg2 := cfg
	cfg2.FTQEntries = 8
	if _, err := run(ctx, r, w, cfg2); err != nil {
		t.Fatal(err)
	}
	if simulations(r) != n+1 {
		t.Error("distinct config not simulated")
	}
}

func TestRunnerImageCached(t *testing.T) {
	ctx := context.Background()
	r := NewRunner(quickOpts())
	w := quickOpts().Workloads[0]
	a, err := r.Image(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Image(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("image regenerated per call")
	}
}

func TestRunPropagatesConfigError(t *testing.T) {
	r := NewRunner(quickOpts())
	w := quickOpts().Workloads[0]
	cfg := core.DefaultConfig()
	cfg.Prefetch.Kind = "hexray"
	if _, err := run(context.Background(), r, w, cfg); err == nil {
		t.Error("bad config did not surface as an error")
	}
}

func TestE1HasOneRowPerWorkload(t *testing.T) {
	r := NewRunner(quickOpts())
	tab, err := E1Characterization(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 2 {
		t.Errorf("rows = %d", tab.NumRows())
	}
}

func TestE2IncludesGmeanRow(t *testing.T) {
	r := NewRunner(quickOpts())
	tab, err := E2SpeedupSmallCache(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	if !strings.Contains(out, "gmean") {
		t.Errorf("no gmean row:\n%s", out)
	}
	if tab.NumRows() != 3 { // 2 workloads + gmean
		t.Errorf("rows = %d", tab.NumRows())
	}
}

func TestSweepsRespectLargeOnly(t *testing.T) {
	r := NewRunner(quickOpts()) // gcc is large, deltablue is not
	tab, err := E6FTQSweep(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	if !strings.Contains(out, "gcc") {
		t.Error("large workload missing from sweep")
	}
	if strings.Contains(out, "deltablue") {
		t.Error("client workload leaked into a large-only sweep")
	}
}

func TestFilterVariantsCoverPolicies(t *testing.T) {
	names, cfgs := filterVariants()
	if len(names) != len(cfgs) || len(names) != 6 {
		t.Fatalf("variants = %d/%d", len(names), len(cfgs))
	}
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, want := range []string{"none", "enq-cons", "enq-opt", "remove", "cons+rem", "opt+rem"} {
		if !seen[want] {
			t.Errorf("missing variant %q", want)
		}
	}
}

func TestAllProducesElevenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole suite")
	}
	opts := quickOpts()
	opts.Instrs = 20_000
	opts.Workers = 4
	var done int
	opts.Progress = func(ev engine.Event) {
		if ev.Kind == engine.EventJobDone {
			done++
		}
	}
	r := NewRunner(opts)
	tables, err := RunExperiments(context.Background(), r, Suite())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 11 {
		t.Fatalf("tables = %d", len(tables))
	}
	for i, tab := range tables {
		if tab.NumRows() == 0 {
			t.Errorf("table %d (%s) empty", i, tab.Title)
		}
	}
	if done != simulations(r) {
		t.Errorf("done events %d != simulations %d", done, simulations(r))
	}
	if simulations(r) == 0 {
		t.Error("no simulations ran")
	}
}

func TestSuiteParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs E2 twice")
	}
	ctx := context.Background()
	opts := quickOpts()
	opts.Instrs = 20_000

	seqOpts := opts
	seqOpts.Workers = 1
	seq, err := E2SpeedupSmallCache(ctx, NewRunner(seqOpts))
	if err != nil {
		t.Fatal(err)
	}
	parOpts := opts
	parOpts.Workers = 8
	par, err := E2SpeedupSmallCache(ctx, NewRunner(parOpts))
	if err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Errorf("E2 differs between workers=1 and workers=8:\n%s\nvs\n%s", seq, par)
	}
}

func TestRunExperimentsPropagatesErrors(t *testing.T) {
	r := NewRunner(quickOpts())
	// Cancelled context: every experiment must fail, not hang or panic.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunExperiments(ctx, r, Suite()); err == nil {
		t.Error("cancelled suite returned no error")
	}
}

func TestSpeedupTableOrderingHolds(t *testing.T) {
	// On an instruction-bound workload FDP must beat next-line even at
	// modest budgets — the headline ordering the harness exists to show.
	ctx := context.Background()
	gcc, _ := workloads.ByName("gcc")
	r := NewRunner(Options{Instrs: 150_000, Workloads: []workloads.Workload{gcc}})
	base, err := run(ctx, r, gcc, baselineConfig(16*1024))
	if err != nil {
		t.Fatal(err)
	}
	cfgs := schemeConfigs(16 * 1024)
	nlpRes, err := run(ctx, r, gcc, cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	fdpRes, err := run(ctx, r, gcc, cfgs[2])
	if err != nil {
		t.Fatal(err)
	}
	nlp := nlpRes.SpeedupPctOver(base)
	fdp := fdpRes.SpeedupPctOver(base)
	if fdp <= nlp {
		t.Errorf("FDP %.1f%% <= next-line %.1f%%", fdp, nlp)
	}
}
