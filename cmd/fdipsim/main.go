// Command fdipsim runs a single front-end simulation through the concurrent
// engine and prints the measurement report. Ctrl-C cancels a long run.
//
// Examples:
//
//	fdipsim -prefetcher fdp -cpf conservative -instrs 2000000
//	fdipsim -funcs 2000 -l1i 32768 -prefetcher streambuf
//	fdipsim -workload vortex -prefetcher fdp -compare
//	fdipsim -workload gcc -prefetcher fdp -json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"fdip"
)

func main() {
	var (
		workload   = flag.String("workload", "", "named workload (see -list); overrides -funcs")
		list       = flag.Bool("list", false, "list named workloads and exit")
		funcs      = flag.Int("funcs", 400, "functions in the synthetic program (ignored with -workload)")
		seed       = flag.Int64("seed", 1, "generation/execution seed")
		instrs     = flag.Uint64("instrs", 1_000_000, "instructions to simulate")
		l1iBytes   = flag.Int("l1i", 16*1024, "L1-I size in bytes")
		ftqEntries = flag.Int("ftq", 32, "FTQ entries")
		pfKind     = flag.String("prefetcher", "none", "none|nextline|streambuf|fdp|mana|shadow")
		cpf        = flag.String("cpf", "off", "FDP cache-probe filtering: off|conservative|optimistic")
		removeCPF  = flag.Bool("remove-cpf", false, "FDP remove-side filtering")
		ftbSets    = flag.Int("ftb-sets", 512, "FTB sets")
		compare    = flag.Bool("compare", false, "also run the no-prefetch baseline and print the speedup")
		jsonOut    = flag.Bool("json", false, "emit the result (or comparison sweep) as JSON")
	)
	flag.Parse()

	if *list {
		for _, w := range fdip.Workloads() {
			fmt.Printf("%-10s %s\n", w.Name, w.Description)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg := fdip.DefaultConfig()
	cfg.MaxInstrs = *instrs
	cfg.L1ISizeBytes = *l1iBytes
	cfg.FTQEntries = *ftqEntries
	cfg.FTB.Sets = *ftbSets
	cfg.Prefetch.Kind = fdip.PrefetcherKind(*pfKind)
	switch *cpf {
	case "off":
	case "conservative":
		cfg.Prefetch.FDP.CPF = fdip.CPFConservative
	case "optimistic":
		cfg.Prefetch.FDP.CPF = fdip.CPFOptimistic
	default:
		fmt.Fprintf(os.Stderr, "fdipsim: unknown cpf mode %q\n", *cpf)
		os.Exit(2)
	}
	cfg.Prefetch.FDP.RemoveCPF = *removeCPF

	job := fdip.Job{Config: cfg}
	if *workload != "" {
		if _, ok := fdip.WorkloadByName(*workload); !ok {
			fmt.Fprintf(os.Stderr, "fdipsim: unknown workload %q (try -list)\n", *workload)
			os.Exit(2)
		}
		job.Workload = *workload
		job.Name = *workload
	} else {
		params := fdip.DefaultProgramParams()
		params.Seed = *seed
		params.NumFuncs = *funcs
		job.Params = &params
		job.Name = fmt.Sprintf("custom(funcs=%d,seed=%d)", *funcs, *seed)
	}
	// The oracle (branch-outcome) seed tracks -seed for workload runs too,
	// so sweeping -seed varies the dynamic behaviour of a fixed program.
	job.Seed = *seed + 1000

	eng := fdip.NewEngine()
	jobs := []fdip.Job{job}
	if *compare {
		base := job
		base.Name = job.Name + "-baseline"
		baseCfg := cfg
		baseCfg.Prefetch.Kind = fdip.PrefetchNone
		base.Config = baseCfg
		jobs = append(jobs, base)
	}
	outs, err := eng.Sweep(ctx, jobs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fdipsim: %v\n", err)
		os.Exit(1)
	}
	for _, out := range outs {
		if out.Err != nil {
			fmt.Fprintf(os.Stderr, "fdipsim: %s: %v\n", out.Job.Name, out.Err)
			os.Exit(1)
		}
	}

	if *jsonOut {
		if *compare {
			err = fdip.WriteOutcomesJSON(os.Stdout, outs)
		} else {
			err = fdip.WriteResultJSON(os.Stdout, outs[0].Result)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fdipsim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	res := outs[0].Result
	fmt.Println(res)
	if *compare {
		baseRes := outs[1].Result
		fmt.Printf("baseline IPC       %.3f\n", baseRes.IPC)
		fmt.Printf("speedup            %+.2f%%\n", res.SpeedupPctOver(baseRes))
	}
}
