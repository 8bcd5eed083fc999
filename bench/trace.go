package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Trace groups the spans of one timed
// operation (a kernel point, a suite pass, a service sweep); set-up and
// attribution spans carry trace 0.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. A nil *tracer records nothing, so untraced
// runs pay one nil check per call site. Safe for concurrent use: worker-side
// spans arrive from HTTP handler goroutines.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, trace int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records an already-measured interval.
func (t *tracer) add(name string, parent, trace int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes the spans as a JSON array.
func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes sums, per layer (the span-name prefix before the first dot),
// each closed span's duration minus the union of its children's intervals
// clipped to it. Only spans of timed operations (trace > 0) count.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		if s.Trace <= 0 || s.End < 0 {
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns how much of [lo, hi) the union of the spans' intervals
// covers.
func covered(lo, hi int64, spans []span) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curA, curB, open = v[0], v[1], true
		case v[0] <= curB:
			curB = max(curB, v[1])
		default:
			total += curB - curA
			curA, curB = v[0], v[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanCostNs measures what recording one span costs on this host, so a
// traced run can state its own overhead.
func spanCostNs() float64 {
	const n = 20000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("bench.calibrate", 0, 0))
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// reportTrace sets the trace.* metrics: span count, estimated overhead as a
// share of the timed loop, and per-layer self time per timed operation.
func reportTrace(r *report, t *tracer, ops int, loop time.Duration) {
	spans := t.snapshot()
	inLoop := 0
	for _, s := range spans {
		if s.Trace > 0 {
			inLoop++
		}
	}
	r.set("trace.spans", float64(inLoop))
	r.set("trace.overhead_pct", 100*ratio(float64(inLoop)*spanCostNs(), float64(loop.Nanoseconds())))
	self := selfTimes(spans)
	for _, l := range traceLayers {
		r.set("trace.self_ms_per_op."+l, ratio(float64(self[l])/1e6, float64(ops)))
	}
}
