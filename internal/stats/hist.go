package stats

import (
	"fmt"
	"math"
	"strings"
)

// HistogramSketch is the simulator's one histogram: n equal buckets over
// [Lo, Hi), under- and overflow counters, and the exact maximum. Because the
// geometry is fixed at construction and the state is integer counts plus a
// max, the sketch is the same whatever order the observations arrive in, so
// the kernel can sample FTQ occupancy into one every cycle without holding
// the samples. NaN observations are ignored.
type HistogramSketch struct {
	// Lo (inclusive) and Hi (exclusive) bound the bucketed range.
	Lo, Hi float64
	// Counts[i] counts observations in [Lo + i*w, Lo + (i+1)*w), where
	// w = (Hi-Lo)/len(Counts).
	Counts []uint64
	// Under counts observations below Lo; Over counts those at or above Hi.
	Under, Over uint64
	// Max is the largest observation, -Inf while the sketch is empty.
	Max float64
}

// NewHistogramSketch builds a sketch of n equal buckets over [lo, hi).
// It panics on a degenerate geometry (n <= 0 or hi <= lo).
func NewHistogramSketch(lo, hi float64, n int) *HistogramSketch {
	if n <= 0 || !(hi > lo) {
		panic(fmt.Sprintf("stats: HistogramSketch geometry [%g,%g)/%d is degenerate", lo, hi, n))
	}
	return &HistogramSketch{Lo: lo, Hi: hi, Counts: make([]uint64, n), Max: math.Inf(-1)}
}

// Add folds one observation. NaN is ignored.
func (h *HistogramSketch) Add(x float64) { h.AddN(x, 1) }

// AddN folds n identical observations in one update — the bulk form the
// cycle kernel uses when fast-forwarding over idle stretches whose sampled
// value is provably constant. NaN is ignored.
func (h *HistogramSketch) AddN(x float64, n uint64) {
	if n == 0 || math.IsNaN(x) {
		return
	}
	h.Max = max(h.Max, x)
	switch {
	case x < h.Lo:
		h.Under += n
	case x >= h.Hi:
		h.Over += n
	default:
		i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
		// Guard the float boundary: x just under Hi can round the scaled
		// index up to len(Counts).
		if i >= len(h.Counts) {
			i = len(h.Counts) - 1
		}
		h.Counts[i] += n
	}
}

// Reset discards every observation, restoring the just-constructed state
// while retaining the bucket array (part of the simulator-wide Reset
// contract; see ARCHITECTURE.md).
func (h *HistogramSketch) Reset() {
	clear(h.Counts)
	h.Under, h.Over = 0, 0
	h.Max = math.Inf(-1)
}

// Count returns the total number of folded observations, including under-
// and overflow.
func (h *HistogramSketch) Count() uint64 {
	n := h.Under + h.Over
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// BucketBounds returns bucket i's [lo, hi) range. Each product is rounded on
// its own (float64(...)), so no architecture fuses it into a multiply-add.
func (h *HistogramSketch) BucketBounds(i int) (lo, hi float64) {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + float64(float64(i)*w), h.Lo + float64(float64(i+1)*w)
}

// Quantile returns an upper bound of the q-quantile (q clamped to [0, 1]):
// the nearest-rank observation, rank ceil(q·Count) (at least 1), reported as
// its bucket's upper edge — Lo for an underflow rank, the exact Max for an
// overflow one. An empty sketch reports 0. The result depends only on the
// counts, so not on the order of the observations.
func (h *HistogramSketch) Quantile(q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	target := max(uint64(math.Ceil(q*float64(n))), 1)
	cum := h.Under
	if cum >= target {
		return h.Lo
	}
	for i, c := range h.Counts {
		if cum += c; cum >= target {
			_, hi := h.BucketBounds(i)
			return hi
		}
	}
	return h.Max
}

// String renders the non-empty buckets compactly:
// "hist[0,8)/32: <1 [0.25,0.5):3 ... >=8:2".
func (h *HistogramSketch) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hist[%g,%g)/%d:", h.Lo, h.Hi, len(h.Counts))
	empty := true
	if h.Under > 0 {
		fmt.Fprintf(&b, " <%g:%d", h.Lo, h.Under)
		empty = false
	}
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.BucketBounds(i)
		fmt.Fprintf(&b, " [%.3g,%.3g):%d", lo, hi, c)
		empty = false
	}
	if h.Over > 0 {
		fmt.Fprintf(&b, " >=%g:%d", h.Hi, h.Over)
		empty = false
	}
	if empty {
		b.WriteString(" empty")
	}
	return b.String()
}
