package fdip

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// smallParams describes the small synthetic program the facade tests run.
func smallParams() ProgramParams {
	p := DefaultProgramParams()
	p.NumFuncs = 80
	p.Seed = 21
	return p
}

func smallImage(t testing.TB) *Image {
	t.Helper()
	im, err := GenerateProgram(smallParams())
	if err != nil {
		t.Fatalf("GenerateProgram: %v", err)
	}
	return im
}

func TestRunFacade(t *testing.T) {
	p := smallParams()
	cfg := DefaultConfig()
	cfg.MaxInstrs = 50_000
	res, err := NewEngine().Run(context.Background(), Job{Params: &p, Seed: 3, Config: cfg})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Committed < cfg.MaxInstrs {
		t.Errorf("committed %d", res.Committed)
	}
	if res.Prefetcher != "none" {
		t.Errorf("prefetcher = %q", res.Prefetcher)
	}
}

func TestRunWorkloadFacade(t *testing.T) {
	w, ok := WorkloadByName("deltablue")
	if !ok {
		t.Fatal("deltablue missing")
	}
	cfg := DefaultConfig()
	cfg.MaxInstrs = 50_000
	cfg.Prefetch.Kind = PrefetchFDP
	res, err := NewEngine().Run(context.Background(), Job{Workload: w.Name, Config: cfg})
	if err != nil {
		t.Fatalf("Engine.Run: %v", err)
	}
	if !strings.HasPrefix(res.Prefetcher, "fdp") {
		t.Errorf("prefetcher = %q", res.Prefetcher)
	}
}

func TestWorkloadsList(t *testing.T) {
	ws := Workloads()
	if len(ws) != 8 {
		t.Fatalf("workloads = %d", len(ws))
	}
	if _, ok := WorkloadByName("nope"); ok {
		t.Error("bogus workload resolved")
	}
}

func TestSimulatorStepping(t *testing.T) {
	im := smallImage(t)
	cfg := DefaultConfig()
	cfg.MaxInstrs = 30_000
	sim, err := NewSimulator(cfg, im, 5)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	sim.StepN(1000)
	if sim.Cycle() != 1000 {
		t.Errorf("Cycle = %d", sim.Cycle())
	}
	mid := sim.Snapshot()
	if mid.Cycles != 1000 {
		t.Errorf("snapshot cycles = %d", mid.Cycles)
	}
	if sim.Committed() == 0 {
		t.Error("nothing committed in 1000 cycles")
	}
	final := sim.Run()
	if final.Committed < cfg.MaxInstrs {
		t.Errorf("final committed = %d", final.Committed)
	}
	if final.Cycles <= mid.Cycles {
		t.Error("Run did not continue past snapshot")
	}
}

// TestSimulatorMatchesRun: a pre-generated image stepped through
// NewSimulator and the same program named by its params in a Job are one
// simulation.
func TestSimulatorMatchesRun(t *testing.T) {
	p := smallParams()
	cfg := DefaultConfig()
	cfg.MaxInstrs = 40_000
	direct, err := NewEngine().Run(context.Background(), Job{Params: &p, Seed: 9, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(cfg, smallImage(t), 9)
	if err != nil {
		t.Fatal(err)
	}
	stepped := sim.Run()
	if direct != stepped {
		t.Error("Run and Simulator.Run diverge for the same seed")
	}
}

func TestConfigErrorsSurface(t *testing.T) {
	p := smallParams()
	cfg := DefaultConfig()
	cfg.Prefetch.Kind = "hexray"
	if _, err := NewEngine().Run(context.Background(), Job{Params: &p, Seed: 1, Config: cfg}); err == nil {
		t.Error("bad prefetcher accepted")
	}
	if _, err := NewSimulator(cfg, smallImage(t), 1); err == nil {
		t.Error("bad prefetcher accepted by NewSimulator")
	}
}

func TestEngineSweepFacade(t *testing.T) {
	fdpCfg := DefaultConfig()
	fdpCfg.Prefetch.Kind = PrefetchFDP
	jobs := []Job{
		{Workload: "gcc", Config: DefaultConfig()},
		{Workload: "gcc", Config: fdpCfg},
	}
	var events int
	eng := NewEngine(WithWorkers(2), WithInstrBudget(30_000), WithProgress(func(Event) { events++ }))
	outs, err := eng.Sweep(context.Background(), jobs)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(outs) != 2 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	for i, out := range outs {
		if out.Err != nil {
			t.Fatalf("job %d: %v", i, out.Err)
		}
		if out.Result.Committed < 30_000 {
			t.Errorf("job %d committed %d", i, out.Result.Committed)
		}
	}
	if !strings.HasPrefix(outs[1].Result.Prefetcher, "fdp") {
		t.Errorf("job 1 prefetcher = %q", outs[1].Result.Prefetcher)
	}
	if events == 0 {
		t.Error("no progress events streamed")
	}
	if st := eng.Stats(); st.Simulations != 2 {
		t.Errorf("Simulations = %d, want 2", st.Simulations)
	}

	var buf bytes.Buffer
	if err := WriteOutcomesJSON(&buf, outs); err != nil {
		t.Fatalf("WriteOutcomesJSON: %v", err)
	}
	if !strings.Contains(buf.String(), "\"IPC\"") {
		t.Error("outcome JSON missing IPC")
	}
}

func TestEngineHonorsCancellation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInstrs = 1 << 40
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := NewEngine(WithWorkers(1)).Run(ctx, Job{Workload: "gcc", Config: cfg})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %s", elapsed)
	}
}

func TestPlanStreamFacade(t *testing.T) {
	w, ok := WorkloadByName("deltablue")
	if !ok {
		t.Fatal("deltablue missing")
	}
	fdp := DefaultConfig()
	fdp.Prefetch.Kind = PrefetchFDP
	plan := NewPlan(fdp).
		Over(w).
		Axes(Vary("ftq", []int{4, 16}, func(c *Config, n int) { c.FTQEntries = n }).
			WithBaseline("base", DefaultConfig()))
	if plan.Points() != 3 {
		t.Fatalf("Points = %d", plan.Points())
	}

	eng := NewEngine(WithWorkers(2), WithInstrBudget(30_000))
	results := make([]Result, plan.Points())
	for out, err := range eng.Stream(context.Background(), plan) {
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		if out.Err != nil {
			t.Fatalf("%s: %v", out.Job.Name, out.Err)
		}
		results[out.Index] = out.Result
	}
	// The streamed plan must agree with the equivalent explicit sweep.
	cfg4, cfg16 := fdp, fdp
	cfg4.FTQEntries = 4
	cfg16.FTQEntries = 16
	outs, err := NewEngine(WithWorkers(1), WithInstrBudget(30_000)).Sweep(context.Background(), []Job{
		{Workload: w.Name, Config: DefaultConfig()},
		{Workload: w.Name, Config: cfg4},
		{Workload: w.Name, Config: cfg16},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		if results[i] != outs[i].Result {
			t.Errorf("plan point %d diverges from the explicit sweep", i)
		}
	}
	if results[1].IPC >= results[2].IPC {
		t.Logf("note: ftq=4 IPC %.3f >= ftq=16 IPC %.3f", results[1].IPC, results[2].IPC)
	}
}

func TestVersionIsV6(t *testing.T) {
	if Version == "" {
		t.Error("empty Version")
	}
	if !strings.HasPrefix(Version, "6.") {
		t.Errorf("Version = %q, want a 6.x release (images expose instructions through InstrAt, not a Code slice)", Version)
	}
}
