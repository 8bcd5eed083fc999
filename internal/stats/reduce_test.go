package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactMoments computes mean/variance the naive two-pass way as the oracle.
func exactMoments(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		variance += d * d
	}
	variance /= float64(len(xs))
	return
}

func TestMomentsMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 100 + rng.NormFloat64()*3 // offset mean: the catastrophic case for naive sum-of-squares
	}
	var m Moments
	for _, x := range xs {
		m.Add(x)
	}
	wantMean, wantVar := exactMoments(xs)
	if m.Count != 1000 {
		t.Fatalf("count = %d", m.Count)
	}
	if math.Abs(m.Mean-wantMean) > 1e-9 {
		t.Errorf("mean = %v, want %v", m.Mean, wantMean)
	}
	if math.Abs(m.Variance()-wantVar) > 1e-9 {
		t.Errorf("variance = %v, want %v", m.Variance(), wantVar)
	}
}

// exactTopK is the oracle: sort the full stream by (score, seq) and take k.
func exactTopK(scores []float64, k int, bottom bool) []ScoredItem[int] {
	items := make([]ScoredItem[int], len(scores))
	for i, s := range scores {
		items[i] = ScoredItem[int]{Score: s, Seq: int64(i), Value: i}
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].Score != items[j].Score {
			if bottom {
				return items[i].Score < items[j].Score
			}
			return items[i].Score > items[j].Score
		}
		return items[i].Seq < items[j].Seq
	})
	if len(items) > k {
		items = items[:k]
	}
	return items
}

func TestTopKMatchesExactCollection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	scores := make([]float64, 500)
	for i := range scores {
		scores[i] = math.Floor(rng.Float64()*50) / 10 // coarse grid: plenty of exact ties
	}
	for _, bottom := range []bool{false, true} {
		for _, k := range []int{1, 7, 64, 600} {
			tk := NewTopK[int](k)
			if bottom {
				tk = NewBottomK[int](k)
			}
			for i, s := range scores {
				tk.Add(s, int64(i), i)
			}
			got := tk.Items()
			want := exactTopK(scores, k, bottom)
			if len(got) != len(want) {
				t.Fatalf("bottom=%v k=%d: retained %d, want %d", bottom, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("bottom=%v k=%d item %d: got %+v, want %+v", bottom, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestTopKOrderIndependent pins the reducer contract exactly (no tolerance:
// retention is discrete): folding the stream in any arrival order retains
// the identical set — items, order, and all — as the in-order fold. The Seq
// tie-break is what makes this hold in the presence of equal scores.
func TestTopKOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	scores := make([]float64, 300)
	for i := range scores {
		scores[i] = math.Floor(rng.Float64()*20) / 10 // ~15 distinct values over 300 items: ties dominate
	}
	const k = 25
	seq := NewTopK[int](k)
	for i, s := range scores {
		seq.Add(s, int64(i), i)
	}
	want := seq.Items()
	for trial := 0; trial < 3; trial++ {
		shuffled := NewTopK[int](k)
		for _, i := range rng.Perm(len(scores)) {
			shuffled.Add(scores[i], int64(i), i)
		}
		got := shuffled.Items()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d items, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("trial %d item %d: got %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}
