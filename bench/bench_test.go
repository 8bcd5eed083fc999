package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json this
// package must agree with.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, bench runs %v", names, workloadNames)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n%v\nbench declares\n%v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer\n%v\nbench declares\n%v", b.PerLayer, perLayer)
	}
}

// runSmoke runs one workload at smoke scale and parses its result line.
func runSmoke(t *testing.T, workload string, traced bool) (*report, resultLine) {
	t.Helper()
	o := options{workload: workload, seed: 1, scale: 0.02, trace: traced, workdir: t.TempDir()}
	r, err := runWorkload(context.Background(), o)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var buf bytes.Buffer
	if err := writeResult(&buf, r, traced); err != nil {
		t.Fatal(err)
	}
	var res resultLine
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("%s: result line %q: %v", workload, buf.String(), err)
	}
	return r, res
}

// TestWorkloadsSmoke runs every workload untraced and traced at the same
// seed: both must check out, print every declared metric with its unit, and
// produce the same output digest.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			first, res := runSmoke(t, w, false)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range endToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end metric %s: printed %v (unit %q), want unit %q", m.Name, ok, got.Unit, m.Unit)
				}
			}
			second, traced := runSmoke(t, w, true)
			if first.Digest != second.Digest {
				t.Errorf("same seed, digests %s and %s", first.Digest, second.Digest)
			}
			if !traced.Correct {
				t.Errorf("traced run: failed %d of %d", traced.Failed, traced.Attempted)
			}
			for _, m := range perLayer {
				got, ok := traced.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: printed %v (unit %q), want unit %q", m.Name, ok, got.Unit, m.Unit)
				}
			}
		})
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := quantile(xs, 0.9); ok {
		t.Error("p90 of 99 samples has 9 beyond it and must be omitted")
	}
	if v, ok := quantile(append(xs, 100), 0.9); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, ok)
	}
	if v, ok := quantile(xs[:3], 0.5); !ok || v != 2 {
		t.Errorf("median of 1..3 = %v, %v; want 2", v, ok)
	}

	r := newReport("test")
	r.setQuantile("op_p90_ms", xs, 0.9)
	var buf bytes.Buffer
	if err := writeResult(&buf, r, false); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "op_p90_ms") {
		t.Errorf("omitted tail printed: %s", buf.String())
	}
}

func TestSelfTimeUsesIntervalUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: 1, Name: "svc.sweep", Start: 0, End: 100},
		// Overlapping children: the union is [10,50) + [60,70) + [90,100)
		// once clipped to the parent, 60 of its 100.
		{ID: 2, Parent: 1, Trace: 1, Name: "dist.range", Start: 10, End: 30},
		{ID: 3, Parent: 1, Trace: 1, Name: "dist.range", Start: 20, End: 50},
		{ID: 4, Parent: 1, Trace: 1, Name: "dist.range", Start: 60, End: 70},
		{ID: 5, Parent: 1, Trace: 1, Name: "dist.range", Start: 90, End: 120},
		// A grandchild covers part of a child, not of the root.
		{ID: 6, Parent: 3, Trace: 1, Name: "core.run", Start: 25, End: 45},
		// Set-up spans (trace 0) are not self time of a timed operation.
		{ID: 7, Trace: 0, Name: "core.build", Start: 0, End: 1000},
	}
	got := selfTimes(spans)
	want := map[string]int64{"svc": 40, "dist": 20 + (30 - 20) + 10 + 30, "core": 20}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestCompareFlagsGapsAndSpread(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64, spread bool) string {
		var b strings.Builder
		for i := 0; i < 5; i++ {
			metrics := make(map[string]map[string]any)
			for _, m := range endToEnd {
				v := 100 * scale
				if spread && i%2 == 1 {
					v *= 2
				}
				metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
			}
			res, _ := json.Marshal(map[string]any{"correct": true, "attempted": 1, "failed": 0, "metrics": metrics})
			rec, _ := json.Marshal(setRecord{Workload: "kernel-fdp", Seed: 1, Result: res})
			b.Write(append(rec, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow, noisy := write("a", 1, false), write("b", 1.01, false), write("c", 1.5, false), write("d", 1, true)
	for _, tc := range []struct {
		b      string
		wantOK bool
	}{{same, true}, {slow, false}, {noisy, false}} {
		var out bytes.Buffer
		ok, err := compareSets(&out, base, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.wantOK {
			t.Errorf("compare with %s: ok %v, want %v\n%s", filepath.Base(tc.b), ok, tc.wantOK, out.String())
		}
	}
}
