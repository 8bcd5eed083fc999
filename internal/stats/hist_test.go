package stats

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// exactBuckets computes the sketch a sequential pass over xs must produce,
// by the bucket formula and a running max directly.
func exactBuckets(lo, hi float64, n int, xs []float64) *HistogramSketch {
	h := NewHistogramSketch(lo, hi, n)
	for _, x := range xs {
		if !math.IsNaN(x) {
			h.Max = max(h.Max, x)
		}
		switch {
		case math.IsNaN(x):
		case x < lo:
			h.Under++
		case x >= hi:
			h.Over++
		default:
			i := int(float64(n) * (x - lo) / (hi - lo))
			if i >= n {
				i = n - 1
			}
			h.Counts[i]++
		}
	}
	return h
}

// TestHistogramSketchMatchesExactBuckets pins the sketch against the exact
// bucket formula on small grids: folding the observations in order, or in
// any shuffled order, must equal it bit-for-bit.
func TestHistogramSketchMatchesExactBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(64)
		xs := make([]float64, n)
		for i := range xs {
			// Spread across the range, below it, and above it.
			xs[i] = -1 + 10*rng.Float64()
		}
		want := exactBuckets(0, 8, 16, xs)

		seq := NewHistogramSketch(0, 8, 16)
		for _, x := range xs {
			seq.Add(x)
		}
		if !reflect.DeepEqual(seq, want) {
			t.Fatalf("trial %d: sequential Add disagrees with the exact bucket formula:\n%v\nwant\n%v", trial, seq, want)
		}

		shuffled := NewHistogramSketch(0, 8, 16)
		for _, i := range rng.Perm(n) {
			shuffled.Add(xs[i])
		}
		if !reflect.DeepEqual(shuffled, want) {
			t.Fatalf("trial %d: shuffled fold diverges from the exact bucket formula:\n%v\nwant\n%v", trial, shuffled, want)
		}
	}
}

// TestHistogramSketchBoundaries pins the edge semantics: Lo is inclusive, Hi
// exclusive, values just under Hi land in the last bucket, NaN is dropped.
func TestHistogramSketchBoundaries(t *testing.T) {
	h := NewHistogramSketch(0, 4, 4)
	h.Add(0)                    // first bucket, inclusive
	h.Add(math.Nextafter(4, 0)) // last bucket, despite float rounding
	h.Add(4)                    // Over, exclusive
	h.Add(-0.001)               // Under
	h.Add(math.NaN())           // dropped
	if got := h.Counts[0]; got != 1 {
		t.Errorf("Lo-inclusive value: bucket0=%d, want 1", got)
	}
	if got := h.Counts[3]; got != 1 {
		t.Errorf("just-under-Hi value: bucket3=%d, want 1", got)
	}
	if h.Over != 1 || h.Under != 1 {
		t.Errorf("under/over = %d/%d, want 1/1", h.Under, h.Over)
	}
	if got := h.Count(); got != 4 {
		t.Errorf("Count()=%d, want 4 (NaN dropped)", got)
	}
}

// TestHistogramBasics pins the bucketing and quantile rule on a width-10
// geometry: nearest rank over ceil(q·count), reported as the bucket's upper
// edge, Lo for an underflow rank, the exact Max for an overflow one, and 0
// for an empty sketch.
func TestHistogramBasics(t *testing.T) {
	h := NewHistogramSketch(0, 40, 4)
	for _, v := range []float64{0, 5, 9, 10, 25, 39, 40, 1000, -3} {
		h.Add(v)
	}
	if h.Count() != 9 {
		t.Errorf("Count = %d", h.Count())
	}
	if want := []uint64{3, 1, 1, 1}; !reflect.DeepEqual(h.Counts, want) {
		t.Errorf("Counts = %v, want %v", h.Counts, want)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Errorf("under/over = %d/%d, want 1/2", h.Under, h.Over)
	}
	if h.Max != 1000 {
		t.Errorf("Max = %v", h.Max)
	}
	for _, c := range []struct{ q, want float64 }{
		{-1, 0},     // clamped to q=0: rank 1 is the underflow -3, reported as Lo
		{0, 0},      // rank 1
		{0.2, 10},   // rank 2: bucket [0,10)
		{0.5, 20},   // rank 5: bucket [10,20)
		{0.7, 40},   // rank 7: bucket [30,40)
		{0.8, 1000}, // rank 8: overflow reports the exact max
		{1, 1000},
		{2, 1000}, // clamped to q=1
	} {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := NewHistogramSketch(0, 1, 1).Quantile(0.5); got != 0 {
		t.Errorf("empty sketch Quantile = %v, want 0", got)
	}
}

// TestHistogramMeanQuantile pins the integer geometry the core's occupancy
// histogram uses (width-1 buckets, so each value's upper edge is value+1)
// over 1..100, and that AddN(x, n) is exactly n calls to Add(x).
func TestHistogramMeanQuantile(t *testing.T) {
	h := NewHistogramSketch(0, 100, 100)
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	for _, c := range []struct{ q, want float64 }{
		{0, 2}, {0.5, 51}, {0.9, 91}, {0.99, 100}, {1, 100},
	} {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}

	rng := rand.New(rand.NewSource(9))
	bulk, single := NewHistogramSketch(0, 100, 100), NewHistogramSketch(0, 100, 100)
	for i := 0; i < 200; i++ {
		x := float64(rng.Intn(120) - 10) // under-, in- and overflow
		n := uint64(rng.Intn(4))         // including n == 0
		bulk.AddN(x, n)
		for j := uint64(0); j < n; j++ {
			single.Add(x)
		}
	}
	bulk.AddN(math.NaN(), 3)
	if !reflect.DeepEqual(bulk, single) {
		t.Fatalf("AddN diverges from repeated Add:\n%v\nwant\n%v", bulk, single)
	}
}

// TestHistogramQuantileMonotonic: quantiles never decrease in q, and a
// sketch folded in a shuffled order reports exactly the in-order pass's
// quantiles at every q.
func TestHistogramQuantileMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(rng.Intn(200))
	}
	h := NewHistogramSketch(0, 128, 32)
	for _, x := range xs {
		h.Add(x)
	}
	f := func(a, b float64) bool {
		qa, qb := math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		return h.Quantile(qa) <= h.Quantile(qb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 20; trial++ {
		shuffled := NewHistogramSketch(0, 128, 32)
		for _, i := range rng.Perm(len(xs)) {
			shuffled.Add(xs[i])
		}
		for q := 0.0; q <= 1; q += 0.01 {
			if got, want := shuffled.Quantile(q), h.Quantile(q); got != want {
				t.Fatalf("trial %d: Quantile(%v) = %v, want in-order %v", trial, q, got, want)
			}
		}
	}
}

// TestHistogramSketchResetRestoresFresh: Reset returns a used sketch to its
// just-constructed state on the same bucket array, and the reset sketch then
// accumulates exactly as a fresh one does.
func TestHistogramSketchResetRestoresFresh(t *testing.T) {
	h := NewHistogramSketch(0, 8, 16)
	for _, x := range []float64{-1, 0.3, 7.9, 8, 100} {
		h.Add(x)
	}
	backing := &h.Counts[0]
	h.Reset()
	if !reflect.DeepEqual(h, NewHistogramSketch(0, 8, 16)) {
		t.Fatalf("reset sketch %v (max %v) differs from a fresh one", h, h.Max)
	}
	if &h.Counts[0] != backing {
		t.Error("Reset reallocated the bucket array")
	}
	xs := []float64{1, 2.5, 2.5, 9, -4}
	for _, x := range xs {
		h.Add(x)
	}
	if want := exactBuckets(0, 8, 16, xs); !reflect.DeepEqual(h, want) {
		t.Fatalf("reset sketch accumulates differently:\n%v\nwant\n%v", h, want)
	}
}
