package dist

import (
	"fmt"

	"fdip/internal/engine"
	"fdip/internal/stats"
)

// Metric projects one successful outcome to the scalar a Summary reduces.
type Metric func(engine.RunOutcome) float64

// IPC is the canonical metric: the point's instructions per cycle.
func IPC(out engine.RunOutcome) float64 { return out.Result.IPC }

// Summary is the mergeable reduction of a sweep over one metric: online
// mean/variance (stats.Moments), a fixed-bucket value histogram with exact
// quantiles at bucket resolution (stats.HistogramSketch), the k best and k
// worst points (stats.TopK, tie-broken by enumeration index) and a failure
// count. Each shard can fold its own ranges into a private Summary and Merge
// them — the result is identical (histogram, quantiles and TopK sets exactly,
// moments up to float associativity) to observing the whole stream in one
// process, in any order, which is what lets million-point sweeps report
// without anyone holding the result set.
type Summary struct {
	// MetricName labels the reduced metric in reports.
	MetricName string
	// Moments holds the metric's count/mean/variance over successful points.
	Moments stats.Moments
	// Top and Bottom retain the k highest- and lowest-metric points.
	Top, Bottom *stats.TopK[engine.Job]
	// Hist is the metric's fixed-bucket value distribution
	// (stats.HistogramSketch). Integer counts over a geometry fixed at
	// construction merge exactly, so the sharded histogram is bit-identical
	// to the sequential pass, and so are the quantiles String reports from
	// it. The default geometry (histBuckets buckets over [0, histHi)) suits
	// IPC-scaled metrics; out-of-range values land in the under/overflow
	// counters rather than being lost.
	Hist *stats.HistogramSketch
	// Failures counts outcomes that carried an error (excluded from the
	// metric's moments and extremes).
	Failures int

	metric Metric
}

// Default histogram geometry: every shard of one reduction must build the
// same sketch, so NewSummary fixes it rather than inferring it from data.
const (
	histHi      = 8.0
	histBuckets = 32
)

// NewSummary builds a summary over metric, retaining k extremes each way.
func NewSummary(name string, k int, metric Metric) *Summary {
	return &Summary{
		MetricName: name,
		Top:        stats.NewTopK[engine.Job](k),
		Bottom:     stats.NewBottomK[engine.Job](k),
		Hist:       stats.NewHistogramSketch(0, histHi, histBuckets),
		metric:     metric,
	}
}

// Observe folds one outcome.
func (s *Summary) Observe(out engine.RunOutcome) {
	if out.Err != nil {
		s.Failures++
		return
	}
	v := s.metric(out)
	s.Moments.Add(v)
	s.Top.Add(v, int64(out.Index), out.Job)
	s.Bottom.Add(v, int64(out.Index), out.Job)
	s.Hist.Add(v)
}

// Merge folds another shard's summary into s.
func (s *Summary) Merge(o *Summary) {
	s.Moments.Merge(o.Moments)
	s.Top.Merge(o.Top)
	s.Bottom.Merge(o.Bottom)
	s.Hist.Merge(o.Hist)
	s.Failures += o.Failures
}

// String renders the summary in report form. p50 and p90 are nearest-rank
// quantiles read from Hist, so each is its bucket's upper bound (a
// 0.25-wide bucket at the default geometry), or the exact maximum when the
// rank lands in overflow.
func (s *Summary) String() string {
	out := fmt.Sprintf("%s: n=%d mean=%.4f stddev=%.4f p50=%.4f p90=%.4f failures=%d",
		s.MetricName, s.Moments.Count, s.Moments.Mean, s.Moments.StdDev(),
		s.Hist.Quantile(0.5), s.Hist.Quantile(0.9), s.Failures)
	for _, it := range s.Top.Items() {
		out += fmt.Sprintf("\n  top    %-40s %.4f", it.Value.Name, it.Score)
	}
	for _, it := range s.Bottom.Items() {
		out += fmt.Sprintf("\n  bottom %-40s %.4f", it.Value.Name, it.Score)
	}
	out += "\n  " + s.Hist.String()
	return out
}
