// Benchmark harness: one testing.B per reconstructed table/figure of the
// paper's evaluation (experiments E1..E16, see ARCHITECTURE.md), plus engine
// benchmarks that measure batch-sweep throughput sequentially and in
// parallel. Each experiment benchmark regenerates its table and reports
// headline metrics; the full tables print on the first iteration.
//
// The per-point instruction budget defaults to 200k so `go test -bench=.`
// finishes in minutes; set FDIP_BENCH_INSTRS to raise it for
// publication-quality numbers (cmd/fdipbench is the stand-alone runner).
package fdip

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	"fdip/internal/experiments"
	"fdip/internal/oracle"
	"fdip/internal/program"
	"fdip/internal/stats"
)

func benchInstrs() uint64 {
	if s := os.Getenv("FDIP_BENCH_INSTRS"); s != "" {
		if v, err := strconv.ParseUint(s, 10, 64); err == nil && v > 0 {
			return v
		}
	}
	return 200_000
}

func newRunner() *experiments.Runner {
	return experiments.NewRunner(experiments.Options{Instrs: benchInstrs()})
}

// mustGenerate builds a synthetic program image from known-good params.
func mustGenerate(tb testing.TB, p ProgramParams) *Image {
	tb.Helper()
	im, err := GenerateProgram(p)
	if err != nil {
		tb.Fatal(err)
	}
	return im
}

// runExperiment executes fn once per iteration, printing the table on the
// first and reporting rows as a sanity metric.
func runExperiment(b *testing.B, fn func(ctx context.Context, r *experiments.Runner) (*stats.Table, error)) {
	b.ReportAllocs()
	ctx := context.Background()
	var rows int
	for i := 0; i < b.N; i++ {
		r := newRunner()
		t, err := fn(ctx, r)
		if err != nil {
			b.Fatal(err)
		}
		rows = t.NumRows()
		if i == 0 {
			fmt.Printf("\n%s\n", t)
		}
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkE1Characterization regenerates the workload characterisation
// table (footprints, baseline miss rates, branch behaviour).
func BenchmarkE1Characterization(b *testing.B) {
	runExperiment(b, experiments.E1Characterization)
}

// BenchmarkE2SpeedupSmallCache regenerates the headline speedup comparison
// (FDP vs next-line vs stream buffers) at a 16KB L1-I.
func BenchmarkE2SpeedupSmallCache(b *testing.B) {
	runExperiment(b, experiments.E2SpeedupSmallCache)
}

// BenchmarkE3SpeedupLargeCache regenerates the 32KB L1-I comparison.
func BenchmarkE3SpeedupLargeCache(b *testing.B) {
	runExperiment(b, experiments.E3SpeedupLargeCache)
}

// BenchmarkE4BusUtilization regenerates the bus-utilisation comparison.
func BenchmarkE4BusUtilization(b *testing.B) {
	runExperiment(b, experiments.E4BusUtilization)
}

// BenchmarkE5CacheProbeFiltering regenerates the filtering-policy study.
func BenchmarkE5CacheProbeFiltering(b *testing.B) {
	runExperiment(b, experiments.E5CacheProbeFiltering)
}

// BenchmarkE6FTQSweep regenerates the FTQ-depth sensitivity figure.
func BenchmarkE6FTQSweep(b *testing.B) {
	runExperiment(b, experiments.E6FTQSweep)
}

// BenchmarkE7PrefetchBufferSweep regenerates the prefetch-buffer sizing
// figure.
func BenchmarkE7PrefetchBufferSweep(b *testing.B) {
	runExperiment(b, experiments.E7PrefetchBufferSweep)
}

// BenchmarkE8LatencySensitivity regenerates the memory-latency sensitivity
// figure.
func BenchmarkE8LatencySensitivity(b *testing.B) {
	runExperiment(b, experiments.E8LatencySensitivity)
}

// BenchmarkE9CoverageAccuracy regenerates the coverage/accuracy table.
func BenchmarkE9CoverageAccuracy(b *testing.B) {
	runExperiment(b, experiments.E9CoverageAccuracy)
}

// BenchmarkE10FTBSweep regenerates the FTB-reach ablation.
func BenchmarkE10FTBSweep(b *testing.B) {
	runExperiment(b, experiments.E10FTBSweep)
}

// BenchmarkE11PredictorAblation regenerates the predictor/BTB-organisation
// ablation.
func BenchmarkE11PredictorAblation(b *testing.B) {
	runExperiment(b, experiments.E11Ablation)
}

// sweepJobs builds the engine benchmark's job list: the full benchmark
// suite under the no-prefetch baseline and the headline FDP+CPF machine.
func sweepJobs() []Job {
	fdpCfg := DefaultConfig()
	fdpCfg.Prefetch.Kind = PrefetchFDP
	fdpCfg.Prefetch.FDP.CPF = CPFConservative
	var jobs []Job
	for _, w := range Workloads() {
		jobs = append(jobs,
			Job{Name: w.Name + "/none", Workload: w.Name, Config: DefaultConfig()},
			Job{Name: w.Name + "/fdp+cpf", Workload: w.Name, Config: fdpCfg})
	}
	return jobs
}

// benchmarkSweep measures end-to-end batch throughput of Engine.Sweep at a
// given worker count; images are pre-generated and shared so the measurement
// isolates simulation parallelism.
func benchmarkSweep(b *testing.B, workers int) {
	jobs := sweepJobs()
	cache := NewImageCache()
	// Warm the image cache once so every iteration measures simulation.
	warm := NewEngine(WithWorkers(workers), WithInstrBudget(1000), WithImageCache(cache))
	if _, err := warm.Sweep(context.Background(), jobs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := NewEngine(WithWorkers(workers), WithInstrBudget(benchInstrs()/4), WithImageCache(cache))
		outs, err := eng.Sweep(context.Background(), jobs)
		if err != nil {
			b.Fatal(err)
		}
		for _, out := range outs {
			if out.Err != nil {
				b.Fatal(out.Err)
			}
		}
	}
	b.ReportMetric(float64(len(jobs)), "jobs")
}

// BenchmarkSweepSequential is the 1-worker reference: the cost of the batch
// on the old synchronous path's execution model.
func BenchmarkSweepSequential(b *testing.B) { benchmarkSweep(b, 1) }

// BenchmarkSweepParallel runs the same batch across all cores; on a
// multi-core host the speedup over BenchmarkSweepSequential approaches the
// core count (results are bit-identical either way).
func BenchmarkSweepParallel(b *testing.B) { benchmarkSweep(b, runtime.GOMAXPROCS(0)) }

// BenchmarkSimulatorThroughput measures raw simulation speed
// (cycles/second) of the default machine with FDP enabled — the cost of one
// experimental point.
func BenchmarkSimulatorThroughput(b *testing.B) {
	params := program.DefaultParams()
	params.NumFuncs = 300
	im := mustGenerate(b, params)
	cfg := DefaultConfig()
	cfg.Prefetch.Kind = PrefetchFDP
	cfg.Prefetch.FDP.CPF = CPFConservative
	cfg.MaxInstrs = 1 << 62
	b.ReportAllocs()
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		sim, err := NewSimulator(cfg, im, 5)
		if err != nil {
			b.Fatal(err)
		}
		sim.StepN(100_000)
		cycles += sim.Cycle()
	}
	b.StopTimer()
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}

// stepSim builds the FDP reference machine for kernel microbenchmarks.
func stepSim(tb testing.TB) *Simulator {
	tb.Helper()
	params := program.DefaultParams()
	params.NumFuncs = 60
	im := mustGenerate(tb, params)
	cfg := DefaultConfig()
	cfg.Prefetch.Kind = PrefetchFDP
	cfg.Prefetch.FDP.CPF = CPFConservative
	cfg.MaxInstrs = 1 << 62
	sim, err := NewSimulator(cfg, im, 5)
	if err != nil {
		tb.Fatal(err)
	}
	return sim
}

// BenchmarkStep measures the raw per-cycle cost of the kernel (no cycle
// skipping — Step is the one-cycle primitive).
func BenchmarkStep(b *testing.B) {
	sim := stepSim(b)
	sim.StepN(10_000) // warm caches and buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(sim.Cycle())/b.Elapsed().Seconds(), "cycles/s")
}

// benchmarkRun measures complete runs of cfg through the event-scheduled
// RunContext path — construction, simulation with idle skipping, and
// finalisation — reporting simulated cycles per second.
func benchmarkRun(b *testing.B, cfg Config) {
	params := program.DefaultParams()
	params.NumFuncs = 60
	im := mustGenerate(b, params)
	b.ReportAllocs()
	var cycles int64
	for i := 0; i < b.N; i++ {
		sim, err := NewSimulator(cfg, im, 5)
		if err != nil {
			b.Fatal(err)
		}
		res := sim.Run()
		cycles += res.Cycles
	}
	b.StopTimer()
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkRunShort measures a complete short run on the headline FDP
// machine.
func BenchmarkRunShort(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Prefetch.Kind = PrefetchFDP
	cfg.MaxInstrs = 50_000
	benchmarkRun(b, cfg)
}

// BenchmarkRunIdleHeavy measures the idle-heavy regime the cycle-skip
// scheduler targets: no prefetching, a small L1-I over slow memory, and a
// deep FTQ — most cycles are fetch stalls during which only the BPU's
// run-ahead acts (stepped until the FTQ fills, then skipped), exactly the
// deep-run-ahead machine the FDIP evaluation sweeps.
func BenchmarkRunIdleHeavy(b *testing.B) {
	cfg := DefaultConfig()
	cfg.L1ISizeBytes = 8 * 1024
	cfg.FTQEntries = 64
	cfg.Mem.MemLatency = 300
	cfg.MaxInstrs = 50_000
	benchmarkRun(b, cfg)
}

// BenchmarkRunFilteredFDP measures the filtered fetch-directed prefetcher
// (enqueue-side cache-probe filtering) on the same small-cache slow-memory
// machine: the kernel skips only the stretches in which the PIQ is empty
// and the scan cursor has caught up with the FTQ, so a PIQ waiting on the
// bus keeps this config on the per-cycle stepping path.
func BenchmarkRunFilteredFDP(b *testing.B) {
	cfg := DefaultConfig()
	cfg.L1ISizeBytes = 8 * 1024
	cfg.FTQEntries = 64
	cfg.Prefetch.Kind = PrefetchFDP
	cfg.Prefetch.FDP.CPF = CPFConservative
	cfg.Mem.MemLatency = 300
	cfg.MaxInstrs = 50_000
	benchmarkRun(b, cfg)
}

// BenchmarkRunLargePFB measures E7's largest point on slow memory: the
// FDP+CPF machine with a 128-entry prefetch buffer over 300-cycle memory.
// Every issue attempt probes the buffer and the in-flight transfers, and
// this is the machine where the buffer is largest and the most transfers
// are in flight.
func BenchmarkRunLargePFB(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Prefetch.Kind = PrefetchFDP
	cfg.Prefetch.FDP.CPF = CPFConservative
	cfg.PrefetchBufferEntries = 128
	cfg.Mem.MemLatency = 300
	cfg.MaxInstrs = 50_000
	benchmarkRun(b, cfg)
}

// TestStepZeroAlloc pins the zero-allocation contract of the cycle kernel at
// the public API: in steady state, advancing the machine allocates nothing.
// CI runs this test as the allocation-regression gate.
func TestStepZeroAlloc(t *testing.T) {
	sim := stepSim(t)
	sim.StepN(300_000) // steady state: all pools, buffers, and lazy sets touched
	if avg := testing.AllocsPerRun(2000, sim.Step); avg != 0 {
		t.Fatalf("Simulator.Step allocates %.2f times per cycle in steady state; want 0", avg)
	}
}

// BenchmarkOracleWalker measures ground-truth execution speed.
func BenchmarkOracleWalker(b *testing.B) {
	params := program.DefaultParams()
	params.NumFuncs = 300
	im := mustGenerate(b, params)
	w := oracle.NewWalker(im, 1)
	b.ReportAllocs()
	b.ResetTimer()
	var rec oracle.Record
	for i := 0; i < b.N; i++ {
		w.NextInto(&rec)
	}
}

// BenchmarkE12WrongPathPIQ regenerates the redirect-policy ablation
// (extension).
func BenchmarkE12WrongPathPIQ(b *testing.B) {
	runExperiment(b, experiments.E12WrongPathPIQ)
}

// BenchmarkE13TagPortSweep regenerates the tag-port ablation (extension).
func BenchmarkE13TagPortSweep(b *testing.B) {
	runExperiment(b, experiments.E13TagPortSweep)
}

// BenchmarkE14FetchWidthSweep regenerates the fetch-width sensitivity
// (extension).
func BenchmarkE14FetchWidthSweep(b *testing.B) {
	runExperiment(b, experiments.E14FetchWidthSweep)
}

// BenchmarkE15StreamGeometry regenerates the stream-buffer geometry sweep
// (extension).
func BenchmarkE15StreamGeometry(b *testing.B) {
	runExperiment(b, experiments.E15StreamGeometry)
}

// BenchmarkE16PerfectBound regenerates the perfect-L1-I upper-bound
// comparison (extension).
func BenchmarkE16PerfectBound(b *testing.B) {
	runExperiment(b, experiments.E16PerfectBound)
}
