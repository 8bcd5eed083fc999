// Command bench is the repository's performance benchmark. It drives the
// simulator's layers (program, oracle, core, engine, experiments, dist, svc)
// through their exported functions on four fixed workloads and prints one
// JSON result line per run: end-to-end metrics untraced, per-layer metrics
// traced. It also checks the outputs it times. See README.md.
//
//	bench -workload kernel-fdp -seed 1 -seconds 10 -trace 0
//	bench -workload service-mix -trace 1 -spans spans.json
//	bench -runs 10 -out a.ndjson        # every workload, 10 runs each
//	bench -compare a.ndjson b.ndjson    # agreement within the bounds
package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// workloadNames lists the workloads in report order.
var workloadNames = []string{"kernel-fdp", "kernel-stall", "suite-short", "service-mix"}

var runners = map[string]func(context.Context, options) (*report, error){
	"kernel-fdp":   func(ctx context.Context, o options) (*report, error) { return runKernel(ctx, o, kernelFDP(o.scale)) },
	"kernel-stall": func(ctx context.Context, o options) (*report, error) { return runKernel(ctx, o, kernelStall(o.scale)) },
	"suite-short":  runSuite,
	"service-mix":  runService,
}

const (
	// setupRuns is how many times a run builds its set-up; setup_s is the
	// median.
	setupRuns = 3
	// minOps is the fewest timed operations a run makes: enough for a p90
	// with ten samples beyond it.
	minOps = 100
	// minRounds is the fewest rounds (kernel), passes (suite) or epochs
	// (service) a run makes: a fastest-of-repeats needs repeats.
	minRounds = 3
	// runTimeout bounds a whole run, set-up and checks included.
	runTimeout = 170 * time.Second
)

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	workdir  string
	tr       *tracer // nil unless traced
}

// rounds is how many rounds of opsPerRound operations a timed loop runs:
// as many as take o.seconds on the 2-core host the nominal round time was
// measured on, and enough for a p90 over the operations unless opsPerRound
// is 0 (a loop that takes no tail percentile). The count depends on the
// flags only, never on the speed of the code under test, so every commit
// does the same work, and the fastest-of-repeats estimators always see the
// same number of repeats.
func (o options) rounds(nominal time.Duration, opsPerRound int) int {
	n := max(int(math.Round(o.seconds/nominal.Seconds())), minRounds)
	if opsPerRound > 0 {
		n = max(n, (minOps+opsPerRound-1)/opsPerRound)
	}
	return n
}

// scaled shrinks a work size for smoke runs.
func scaled(n uint64, scale float64) uint64 {
	return max(1000, uint64(float64(n)*scale))
}

// repeatSetup runs fn setupRuns times and returns the median duration in
// seconds.
func repeatSetup(fn func() error) (float64, error) {
	var secs []float64
	for i := 0; i < setupRuns; i++ {
		settle()
		start := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	v, _ := quantile(secs, 0.5)
	return v, nil
}

// settle collects garbage between phases, never inside a timed region, so
// peak memory reflects what each phase holds rather than when the collector
// happened to run.
func settle() { runtime.GC() }

//go:embed testdata/digests.json
var pinnedDigests []byte

// runWorkload runs one workload and completes its report: peak memory, and
// the pinned-digest check for the seed and scale the digests were taken at.
func runWorkload(ctx context.Context, o options) (*report, error) {
	run, ok := runners[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
	}
	if o.trace {
		o.tr = newTracer()
	}
	r, err := run(ctx, o)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.set("peak_rss_mb", rss)
	var pins map[string]string
	if err := json.Unmarshal(pinnedDigests, &pins); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	if want, ok := pins[o.workload]; ok && o.seed == 1 && o.scale == 1 {
		r.check(r.Digest == want, "output digest %s, pinned %s", r.Digest, want)
	}
	return r, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		o       options
		trace   int
		spans   = flag.String("spans", "", "with -trace 1, write the recorded spans to this JSON file")
		runs    = flag.Int("runs", 1, "without -workload: runs of each workload")
		out     = flag.String("out", "", "without -workload: append each run's result to this NDJSON file")
		compare = flag.Bool("compare", false, "compare two NDJSON result sets given as arguments")
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run ("+fmt.Sprint(workloadNames)+"); empty runs each in its own process")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "timed work, in seconds of the reference 2-core host")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Float64Var(&o.scale, "scale", 1, "work-size multiplier (smoke tests use 0.02)")
	flag.StringVar(&o.workdir, "workdir", ".", "directory for service state")
	flag.Parse()
	o.trace = trace == 1

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		ok, err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.workload == "" {
		if err := runAll(ctx, o, trace, *runs, *out); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}

	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	r, err := runWorkload(ctx, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	if *spans != "" && o.tr != nil {
		if err := o.tr.writeFile(*spans); err != nil {
			fmt.Fprintf(os.Stderr, "bench: spans: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: digest %s, %d checks, %d failed\n", o.workload, o.seed, r.Digest, r.Attempted, r.Failed)
	if err := writeResult(os.Stdout, r, o.trace); err != nil {
		return 1
	}
	return 0
}

// setRecord is one run in an NDJSON result set.
type setRecord struct {
	Workload string          `json:"workload"`
	Seed     int64           `json:"seed"`
	Trace    int             `json:"trace"`
	Result   json.RawMessage `json:"result"`
}

// runAll runs every workload runs times, each run in its own child process
// (so peak memory and heap state are the run's own), printing each result
// line and appending it to out.
func runAll(ctx context.Context, o options, trace, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var sink io.Writer = io.Discard
	if out != "" {
		f, err := os.OpenFile(out, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		sink = f
	}
	failed := 0
	for _, w := range workloadNames {
		for i := 0; i < runs; i++ {
			cmd := exec.CommandContext(ctx, self,
				"-workload", w, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(trace),
				"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
				"-workdir", o.workdir)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: %v\n", w, i+1, err)
				failed++
				continue
			}
			line := lastLine(stdout)
			fmt.Printf("%s %s\n", w, line)
			rec, err := json.Marshal(setRecord{Workload: w, Seed: o.seed, Trace: trace, Result: line})
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintf(sink, "%s\n", rec); err != nil {
				return err
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed", failed)
	}
	return nil
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// resultLine is the parsed result line.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// loadSet reads an NDJSON result set: per workload, per metric, the values
// of every run.
func loadSet(path string) (map[string]map[string][]float64, map[string]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	vals := make(map[string]map[string][]float64)
	failed := make(map[string]int)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rec setRecord
		var res resultLine
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if err := json.Unmarshal(rec.Result, &res); err != nil {
			return nil, nil, fmt.Errorf("%s:%d: result: %w", path, n, err)
		}
		if vals[rec.Workload] == nil {
			vals[rec.Workload] = make(map[string][]float64)
		}
		for name, m := range res.Metrics {
			vals[rec.Workload][name] = append(vals[rec.Workload][name], m.Value)
		}
		failed[rec.Workload] += res.Failed
	}
	return vals, failed, sc.Err()
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) (exclusive method) does.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// compareSets prints, per workload and end-to-end metric, each set's median
// and quartiles, and flags a median gap beyond the metric's bound (in the
// worse direction) or a spread wider than the bound (unresolved). Set-up
// time is held to its median only: its spread across runs is not bounded.
// It reports whether nothing was flagged.
func compareSets(w io.Writer, pathA, pathB string) (bool, error) {
	a, failA, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	b, failB, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-13s %-17s %28s %28s %8s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B vs A", "verdict")
	for _, wl := range workloadNames {
		if a[wl] == nil && b[wl] == nil {
			continue
		}
		if failA[wl]+failB[wl] > 0 {
			fmt.Fprintf(w, "%-13s failed operations: A %d, B %d\n", wl, failA[wl], failB[wl])
			ok = false
		}
		for _, m := range endToEnd {
			va, vb := a[wl][m.Name], b[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-13s %-17s missing from a set\n", wl, m.Name)
				ok = false
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			gap := ratio(b2-a2, a2)
			worse := gap
			if m.Better == "higher" {
				worse = -gap
			}
			verdict := "agree"
			switch {
			case m.Name != "setup_s" && (ratio(a3-a1, a2) > m.Bound || ratio(b3-b1, b2) > m.Bound):
				verdict = "UNRESOLVED (spread wider than bound)"
				ok = false
			case worse > m.Bound:
				verdict = "WORSE beyond bound"
				ok = false
			case -worse > m.Bound:
				verdict = "better beyond bound"
			}
			fmt.Fprintf(w, "%-13s %-17s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %+7.1f%%  %s (bound %.0f%%, spread A %.1f%% B %.1f%%)\n",
				wl, m.Name, a2, a1, a3, b2, b1, b3, 100*gap, verdict, 100*m.Bound, 100*ratio(a3-a1, a2), 100*ratio(b3-b1, b2))
		}
	}
	return ok, nil
}
