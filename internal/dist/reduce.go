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

// Summary is the reduction of a sweep over one metric: online mean/variance
// (stats.Moments), a fixed-bucket value histogram with exact quantiles at
// bucket resolution (stats.HistogramSketch), the k best and k worst points
// (stats.TopK, tie-broken by enumeration index) and a failure count. It
// folds outcomes in arrival order, and the result does not depend on that
// order (the histogram, quantiles and TopK sets exactly, the moments up to
// float rounding), which is what lets a sweep report without anyone holding
// the result set.
type Summary struct {
	// MetricName labels the reduced metric in reports.
	MetricName string
	// Moments holds the metric's count/mean/variance over successful points.
	Moments stats.Moments
	// Top and Bottom retain the k highest- and lowest-metric points.
	Top, Bottom *stats.TopK[engine.Job]
	// Hist is the metric's fixed-bucket value distribution
	// (stats.HistogramSketch). Integer counts over a geometry fixed at
	// construction do not depend on arrival order, and neither do the
	// quantiles String reports from it. The default geometry (histBuckets buckets over [0, histHi)) suits
	// IPC-scaled metrics; out-of-range values land in the under/overflow
	// counters rather than being lost.
	Hist *stats.HistogramSketch
	// Failures counts outcomes that carried an error (excluded from the
	// metric's moments and extremes).
	Failures int

	metric Metric
}

// Default histogram geometry, fixed rather than inferred from data so that
// the buckets do not depend on which outcomes arrive first.
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
