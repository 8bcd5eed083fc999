// Command fdipbench runs the full reconstructed evaluation (experiments
// E1..E11, documented in ARCHITECTURE.md) plus the extension ablations
// (E12..E16) and prints the paper-style tables. Experiments are declarative
// sweep plans streamed concurrently through the shared simulation engine:
// points stream back as they complete (per-result progress lines with -v),
// with configurations shared between experiments (e.g. the no-prefetch
// baseline) simulated once. Ctrl-C cancels the suite promptly.
//
//	fdipbench                       # full suite, 1M instructions per point
//	fdipbench -instrs 250000        # quicker pass
//	fdipbench -only E2,E5           # selected experiments
//	fdipbench -workloads gcc,perl   # restricted benchmark set
//	fdipbench -workers 16           # widen the simulation pool
//	fdipbench -json                 # machine-readable tables
//	fdipbench -cpuprofile cpu.out   # profile the kernel hot path
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"fdip/internal/engine"
	"fdip/internal/experiments"
	"fdip/internal/workloads"
)

func main() {
	os.Exit(run())
}

// run is main behind an exit code, so profile-flushing defers execute even
// on failure paths.
func run() int {
	var (
		instrs     = flag.Uint64("instrs", 1_000_000, "committed instructions per simulation point")
		only       = flag.String("only", "", "comma-separated experiment ids (e.g. E2,E5); empty = all")
		wls        = flag.String("workloads", "", "comma-separated workload names; empty = all")
		workers    = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		verbose    = flag.Bool("v", false, "print per-simulation progress")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut    = flag.Bool("json", false, "emit JSON instead of aligned tables")
		timeout    = flag.Duration("timeout", 0, "abort the suite after this duration (0 = none)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fdipbench: -cpuprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "fdipbench: -cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fdipbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "fdipbench: -memprofile: %v\n", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := experiments.Options{Instrs: *instrs, Workers: *workers}
	if *wls != "" {
		for _, name := range strings.Split(*wls, ",") {
			w, ok := workloads.ByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "fdipbench: unknown workload %q\n", name)
				return 2
			}
			opts.Workloads = append(opts.Workloads, w)
		}
	}
	if *verbose {
		opts.Progress = func(ev engine.Event) {
			if ev.Kind == engine.EventJobStarted {
				return // one line per completed point is enough
			}
			fmt.Fprintln(os.Stderr, "  "+ev.String())
		}
	}
	r := experiments.NewRunner(opts)

	suite := experiments.ExtendedSuite()
	if *only != "" {
		selected := map[string]bool{}
		for _, id := range strings.Split(*only, ",") {
			selected[strings.ToUpper(strings.TrimSpace(id))] = true
		}
		var keep []experiments.Experiment
		for _, e := range suite {
			if selected[e.ID] {
				keep = append(keep, e)
			}
		}
		if len(keep) == 0 {
			fmt.Fprintf(os.Stderr, "fdipbench: no experiments match -only %q\n", *only)
			return 2
		}
		suite = keep
	}

	start := time.Now()
	tables, err := experiments.RunExperiments(ctx, r, suite)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fdipbench: %v\n", err)
		return 1
	}
	for _, t := range tables {
		switch {
		case *jsonOut:
			if err := t.JSON(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "fdipbench: %v\n", err)
				return 1
			}
		case *csv:
			fmt.Printf("# %s\n", t.Title)
			t.CSV(os.Stdout)
			fmt.Println()
		default:
			t.Render(os.Stdout)
			fmt.Println()
		}
	}
	st := r.Engine().Stats()
	fmt.Fprintf(os.Stderr, "fdipbench: %d simulations (%d memo hits) on %d workers in %s\n",
		st.Simulations, st.CacheHits, r.Engine().Workers(), time.Since(start).Round(time.Millisecond))
	// Kernel-speed aggregate: simulated cycles per second of in-simulation
	// wall time, summed over every fresh simulation — the number performance
	// work tracks across runs — plus how often a worker slot's machine had
	// the next job's config and was reset instead of rebuilt.
	fmt.Fprintf(os.Stderr, "fdipbench: kernel %.2fM cycles/s aggregate (%d simulated cycles in %.2fs sim time; machines built %d, reused %d)\n",
		st.CyclesPerSec()/1e6, st.SimulatedCycles, st.SimSeconds, st.MachinesBuilt, st.MachinesReused)
	return 0
}
