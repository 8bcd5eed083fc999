package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metric declares one reported number. BENCHMARK.json at the repository root
// mirrors these tables (bench_test.go checks that it does); the bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics an untraced run prints. Every workload reports
// every one; "op" is the workload's unit of user-visible work (a kernel
// point, a whole suite pass, a cached service sweep from submit to last
// row). Rates and op latency come from the fastest repeat of
// identical work (see README.md). Each bound is set from the metric's own
// measured spread and the gap between two sets of runs (README.md).
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"sim_minstr_per_s", "Minstr/s", "higher", 0.2},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.1},
}

// experimentIDs are the suite's experiments in ID order (the per-layer solo
// metrics are declared for each).
var experimentIDs = []string{
	"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
	"E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19",
}

// traceLayers are the span-name prefixes whose self time a traced run
// reports: the benchmark's own loop ("bench") and each layer it calls into.
var traceLayers = []string{"bench", "program", "oracle", "core", "experiments", "svc", "dist"}

// perLayer are the metrics a traced run prints. A layer a workload does not
// exercise reports 0 for its metrics.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	ms := []metric{
		{Name: "bench.op_p90_ms", Unit: "ms", Better: "lower"},
		{Name: "program.generate_ms", Unit: "ms", Better: "lower"},
		{Name: "program.images", Unit: "count", Better: "lower"},
		{Name: "oracle.ns_per_instr", Unit: "ns", Better: "lower"},
		{Name: "oracle.share", Unit: "ratio", Better: "lower"},
		{Name: "core.build_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "core.reset_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "core.run_ns_per_cycle", Unit: "ns", Better: "lower"},
		{Name: "core.run_ns_per_instr", Unit: "ns", Better: "lower"},
		{Name: "core.naive_over_sched", Unit: "ratio", Better: "higher"},
		{Name: "core.allocs_per_point", Unit: "count", Better: "lower"},
		{Name: "core.alloc_bytes_per_point", Unit: "B", Better: "lower"},
		{Name: "core.fetch_stall_frac", Unit: "ratio", Better: "lower"},
		{Name: "core.fetch_idle_frac", Unit: "ratio", Better: "lower"},
		{Name: "core.backend_full_frac", Unit: "ratio", Better: "lower"},
		{Name: "core.bpu_ftq_full_frac", Unit: "ratio", Better: "lower"},
		{Name: "core.full_miss_pki", Unit: "1/kinstr", Better: "lower"},
		{Name: "core.prefetch_issued_pki", Unit: "1/kinstr", Better: "lower"},
		{Name: "core.mispredict_pki", Unit: "1/kinstr", Better: "lower"},
		{Name: "core.ftq_occ_mean", Unit: "entries", Better: "higher"},
		{Name: "core.model_ipc_gmean", Unit: "instr/cycle", Better: "higher"},
		{Name: "engine.points", Unit: "count", Better: "higher"},
		{Name: "engine.memo_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "engine.machines_built", Unit: "count", Better: "lower"},
		{Name: "engine.pool_reuse_ratio", Unit: "ratio", Better: "higher"},
		{Name: "engine.sim_busy_frac", Unit: "ratio", Better: "higher"},
		{Name: "engine.overhead_ms_per_point", Unit: "ms", Better: "lower"},
		{Name: "engine.allocs_per_point", Unit: "count", Better: "lower"},
		{Name: "experiments.pass_s_p50", Unit: "s", Better: "lower"},
	}
	for _, id := range experimentIDs {
		ms = append(ms, metric{Name: "experiments." + id + ".solo_s", Unit: "s", Better: "lower"})
	}
	ms = append(ms, []metric{
		{Name: "experiments.solo_sum_over_pass", Unit: "ratio", Better: "lower"},
		{Name: "dist.ranges", Unit: "count", Better: "higher"},
		{Name: "dist.jobs_shipped", Unit: "count", Better: "higher"},
		{Name: "dist.range_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "dist.worker_busy_frac", Unit: "ratio", Better: "higher"},
		{Name: "dist.wire_bytes_per_point", Unit: "B", Better: "lower"},
		{Name: "dist.journal_commit_ms", Unit: "ms", Better: "lower"},
		{Name: "svc.submit_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "svc.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "svc.merge_tail_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "svc.cache_served_ratio", Unit: "ratio", Better: "higher"},
		{Name: "svc.rejected", Unit: "count", Better: "lower"},
		{Name: "svc.cold_sweep_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "svc.overlap_sweep_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "svc.cached_sweep_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "svc.first_row_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "trace.spans", Unit: "count", Better: "lower"},
		{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	}...)
	for _, l := range traceLayers {
		ms = append(ms, metric{Name: "trace.self_ms_per_op." + l, Unit: "ms", Better: "lower"})
	}
	return ms
}

// report is one workload run's outcome.
type report struct {
	Workload  string
	Attempted int
	Failed    int
	// Values holds every metric the run measured, end-to-end and per-layer.
	Values map[string]float64
	// Digest fingerprints the run's deterministic outputs (see digests.json).
	Digest string
}

func newReport(workload string) *report {
	return &report{Workload: workload, Values: make(map[string]float64)}
}

func (r *report) set(name string, v float64) { r.Values[name] = v }

// setQuantile records the q-quantile of xs under name, or leaves it unset
// when too few samples lie beyond it (see quantile).
func (r *report) setQuantile(name string, xs []float64, q float64) {
	if v, ok := quantile(xs, q); ok {
		r.set(name, v)
	}
}

// zero reports 0 for every per-layer metric under the given name prefixes
// that the run left unset: the layers the workload does not exercise.
func (r *report) zero(prefixes ...string) {
	for _, m := range perLayer {
		if _, ok := r.Values[m.Name]; ok {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(m.Name, p) {
				r.set(m.Name, 0)
			}
		}
	}
}

// check counts one verification: attempted always, failed unless ok. A
// failure is also described on stderr.
func (r *report) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s\n", r.Workload, fmt.Sprintf(format, args...))
	}
}

// minTailBeyond is how many samples must lie beyond a tail percentile for it
// to be reported.
const minTailBeyond = 10

// quantile returns the nearest-rank q-quantile of xs. A tail quantile (q >
// 0.5) is reported only when at least minTailBeyond samples lie beyond it,
// so a p90 needs 100 samples; the median needs one.
func quantile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(n))) - 1
	idx = max(0, min(idx, n-1))
	if q > 0.5 && n-1-idx < minTailBeyond {
		return 0, false
	}
	return s[idx], true
}

// millis converts nanosecond samples to milliseconds.
func millis(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digestOf fingerprints v's JSON encoding.
func digestOf(v any) string {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(v); err != nil {
		panic(fmt.Sprintf("bench: digest: %v", err)) // only plain data is digested
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// writeResult prints the result line the benchmark contract defines: exactly
// the declared metrics of the mode (end-to-end untraced, per-layer traced),
// each with its unit. A declared metric the run could not measure is left
// out and reported on stderr.
func writeResult(w io.Writer, r *report, traced bool) error {
	decl := endToEnd
	if traced {
		decl = perLayer
	}
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, r.Failed == 0, max(r.Attempted, 1), r.Failed)
	first := true
	for _, m := range decl {
		v, ok := r.Values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "bench: %s: metric %s not measured\n", r.Workload, m.Name)
			continue
		}
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, m.Name, strconv.FormatFloat(v, 'g', -1, 64), m.Unit)
	}
	b.WriteString("}}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// peakRSSMB reads the process's peak resident set (VmHWM) in megabytes.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
