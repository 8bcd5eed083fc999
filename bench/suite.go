package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"fdip/internal/engine"
	"fdip/internal/experiments"
	"fdip/internal/program"
	"fdip/internal/stats"
	"fdip/internal/workloads"
)

const (
	// suiteWorkers is the suite's simulation concurrency: the two cores of
	// the host the benchmark is sized for.
	suiteWorkers = 2
	// suitePassTime is the nominal time of one pass.
	suitePassTime = 1250 * time.Millisecond
)

// suitePass is one measured pass of the user-facing fdipbench flow: a fresh
// Runner (so images regenerate and machine pools start empty) running the
// extended suite E1..E19 through RunExperiments. The pass is the op: its
// experiments run concurrently on one engine, so a single experiment's wall
// inside it says more about queue order than about the experiment's cost.
type suitePass struct {
	wall   time.Duration
	stats  engine.Stats
	images int
	fresh  int64 // committed instructions of fresh (non-memo) simulations
	digest string
}

func runSuitePass(ctx context.Context, tr *tracer, trace int, instrs uint64, exps []experiments.Experiment) (*suitePass, error) {
	var fresh atomic.Int64
	root := tr.begin("bench.pass", 0, trace)
	defer tr.end(root)
	start := time.Now()
	r := experiments.NewRunner(experiments.Options{
		Instrs:  instrs,
		Workers: suiteWorkers,
		Progress: func(ev engine.Event) {
			if ev.Kind == engine.EventJobDone {
				fresh.Add(int64(ev.Result.Committed))
			}
		},
	})
	sp := tr.begin("experiments.run", root, trace)
	tables, err := experiments.RunExperiments(ctx, r, exps)
	tr.end(sp)
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	return &suitePass{
		wall:   wall,
		stats:  r.Engine().Stats(),
		images: r.Engine().Images().Len(),
		fresh:  fresh.Load(),
		digest: tablesDigest(exps, tables),
	}, nil
}

// tablesDigest fingerprints the rendered tables in experiment-ID order, so
// it does not depend on the seeded run order.
func tablesDigest(exps []experiments.Experiment, tables []*stats.Table) string {
	byID := make(map[string]string, len(exps))
	for i, e := range exps {
		byID[e.ID] = tables[i].String()
	}
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	rendered := make([]string, len(ids))
	for i, id := range ids {
		rendered[i] = id + "\n" + byID[id]
	}
	return digestOf(rendered)
}

func runSuite(ctx context.Context, o options) (*report, error) {
	r := newReport(o.workload)
	tr := o.tr
	instrs := scaled(20_000, o.scale)
	exps := experiments.ExtendedSuite()
	rand.New(rand.NewSource(o.seed)).Shuffle(len(exps), func(i, j int) { exps[i], exps[j] = exps[j], exps[i] })

	// Set-up is one untimed warm-up pass; its tables are the reference
	// every timed pass must reproduce.
	var want string
	setup, err := repeatSetup(func() error {
		p, err := runSuitePass(ctx, tr, 0, instrs, exps)
		if err != nil {
			return fmt.Errorf("warm-up pass: %w", err)
		}
		want = p.digest
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setup)

	var (
		passes   []*suitePass
		loop     time.Duration
		ms0, ms1 runtime.MemStats
	)
	runtime.ReadMemStats(&ms0)
	for tries := range o.rounds(suitePassTime, 0) {
		// Each pass starts from a collected heap, as the set-up passes do,
		// so peak memory does not depend on where the previous pass left
		// the collector.
		settle()
		p, err := runSuitePass(ctx, tr, tries+1, instrs, exps)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			r.check(false, "pass %d: %v", tries+1, err)
			continue
		}
		r.check(p.digest == want, "pass %d tables differ from the warm-up pass", tries+1)
		passes = append(passes, p)
		loop += p.wall
	}
	runtime.ReadMemStats(&ms1)
	r.Digest = want
	if len(passes) == 0 {
		return nil, fmt.Errorf("no pass succeeded")
	}

	// Every pass is the same work, so the end-to-end numbers use the
	// fastest pass: the host is shared, and interference from outside only
	// ever adds time.
	var points, hits, built, reused, images int
	var simSec, busySec float64
	var passSecs []float64
	best := passes[0]
	for _, p := range passes {
		s := p.stats
		points += s.Simulations + s.CacheHits + s.Failures
		hits += s.CacheHits
		built += s.MachinesBuilt
		reused += s.MachinesReused
		simSec += s.SimSeconds
		busySec += p.wall.Seconds() * suiteWorkers
		images += p.images
		passSecs = append(passSecs, p.wall.Seconds())
		if p.wall < best.wall {
			best = p
		}
	}
	r.set("sim_minstr_per_s", float64(best.fresh)/best.wall.Seconds()/1e6)
	r.set("op_p50_ms", float64(best.wall.Nanoseconds())/1e6)
	// A run has far fewer than the 100 passes a p90 needs (see quantile).
	r.set("bench.op_p90_ms", 0)

	n := float64(len(passes))
	r.set("program.images", float64(images))
	r.set("engine.points", ratio(float64(points), n))
	r.set("engine.memo_hit_ratio", ratio(float64(hits), float64(points)))
	r.set("engine.machines_built", ratio(float64(built), n))
	r.set("engine.pool_reuse_ratio", ratio(float64(reused), float64(built+reused)))
	r.set("engine.sim_busy_frac", ratio(simSec, busySec))
	r.set("engine.overhead_ms_per_point", 1000*ratio(busySec-simSec, float64(points)))
	r.set("engine.allocs_per_point", ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(points)))
	passP50, _ := quantile(passSecs, 0.5)
	r.set("experiments.pass_s_p50", passP50)
	if o.trace {
		if err := suiteAttribution(ctx, r, tr, instrs, exps, passP50); err != nil {
			return nil, err
		}
		reportTrace(r, tr, len(passes), loop)
	}
	r.zero("oracle.", "core.", "dist.", "svc.")
	return r, nil
}

// suiteAttribution is the traced run's extra pass: each experiment alone on
// a fresh Runner, so its cost is its own rather than an overlapping wall
// inside a concurrent pass, plus program generation timed per image.
func suiteAttribution(ctx context.Context, r *report, tr *tracer, instrs uint64, exps []experiments.Experiment, passP50 float64) error {
	if err := timeGenerate(r, tr); err != nil {
		return err
	}
	var sum float64
	for _, e := range exps {
		runner := experiments.NewRunner(experiments.Options{Instrs: instrs, Workers: suiteWorkers})
		start := time.Now()
		if _, err := experiments.RunExperiments(ctx, runner, []experiments.Experiment{e}); err != nil {
			return fmt.Errorf("solo %s: %w", e.ID, err)
		}
		tr.add("experiments.solo", 0, 0, start, time.Now())
		s := time.Since(start).Seconds()
		r.set("experiments."+e.ID+".solo_s", s)
		sum += s
	}
	r.set("experiments.solo_sum_over_pass", ratio(sum, passP50))
	return nil
}

// timeGenerate times program generation of every workload's image once.
func timeGenerate(r *report, tr *tracer) error {
	var ns []int64
	for _, w := range workloads.All() {
		start := time.Now()
		if _, err := program.Generate(w.Params); err != nil {
			return fmt.Errorf("generate %s: %w", w.Name, err)
		}
		tr.add("program.generate", 0, 0, start, time.Now())
		ns = append(ns, time.Since(start).Nanoseconds())
	}
	r.set("program.generate_ms", mean(millis(ns)))
	return nil
}
