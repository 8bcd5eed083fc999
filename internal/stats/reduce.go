package stats

import (
	"math"
	"sort"
)

// This file holds the streaming reducers: fixed-memory summaries of a
// sweep that fold its outcomes in arrival order, and whose result does not
// depend on that order (Moments up to float rounding).

// Moments accumulates count, mean, and variance of a scalar stream in O(1)
// memory using Welford's online update.
//
// The zero Moments is an empty accumulator ready for use.
type Moments struct {
	Count int64
	Mean  float64
	M2    float64 // sum of squared deviations from the running mean
}

// Add folds one observation.
func (m *Moments) Add(x float64) {
	m.Count++
	d := x - m.Mean
	m.Mean += d / float64(m.Count)
	m.M2 += d * (x - m.Mean)
}

// Variance returns the population variance (0 when fewer than 2 samples).
func (m *Moments) Variance() float64 {
	if m.Count < 2 {
		return 0
	}
	return m.M2 / float64(m.Count)
}

// StdDev returns the population standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// ScoredItem is one entry of a TopK: a score, the item's stable sequence
// number in the overall stream (its enumeration index in a sweep), and the
// carried value.
type ScoredItem[T any] struct {
	Score float64
	Seq   int64
	Value T
}

// TopK keeps the k best-scoring items of a stream in O(k) memory. Ties on
// score break toward the lower Seq, which makes the retained set a
// deterministic function of the observation multiset: a stream folded in any
// order keeps exactly the items an in-order pass would, so a sweep's top-k
// does not depend on which worker finishes first.
//
// Direction is fixed at construction: NewTopK retains the highest scores,
// NewBottomK the lowest.
type TopK[T any] struct {
	k      int
	bottom bool
	// heap holds the retained items with the WORST retained item at the
	// root, so a new candidate is admitted by comparing against heap[0]
	// and sifting. Manual sift-up/down keeps this free of container/heap's
	// interface boxing.
	heap []ScoredItem[T]
}

// NewTopK retains the k highest-scoring items.
func NewTopK[T any](k int) *TopK[T] { return &TopK[T]{k: k} }

// NewBottomK retains the k lowest-scoring items.
func NewBottomK[T any](k int) *TopK[T] { return &TopK[T]{k: k, bottom: true} }

// Len returns the number of currently retained items (≤ k).
func (t *TopK[T]) Len() int { return len(t.heap) }

// better reports whether a outranks b for retention.
func (t *TopK[T]) better(a, b ScoredItem[T]) bool {
	if a.Score != b.Score {
		if t.bottom {
			return a.Score < b.Score
		}
		return a.Score > b.Score
	}
	return a.Seq < b.Seq
}

// Add offers one observation. seq must be the item's stable global sequence
// number (a sweep's enumeration index); it is the deterministic tie-break.
func (t *TopK[T]) Add(score float64, seq int64, v T) {
	if t.k <= 0 {
		return
	}
	it := ScoredItem[T]{Score: score, Seq: seq, Value: v}
	if len(t.heap) < t.k {
		t.heap = append(t.heap, it)
		// Sift up: parent must be no better than child (worst at root).
		for i := len(t.heap) - 1; i > 0; {
			p := (i - 1) / 2
			if !t.better(t.heap[p], t.heap[i]) {
				break
			}
			t.heap[p], t.heap[i] = t.heap[i], t.heap[p]
			i = p
		}
		return
	}
	if !t.better(it, t.heap[0]) {
		return // not better than the worst retained item
	}
	t.heap[0] = it
	// Sift down: push the replacement below any worse child.
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < len(t.heap) && t.better(t.heap[worst], t.heap[l]) {
			worst = l
		}
		if r < len(t.heap) && t.better(t.heap[worst], t.heap[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.heap[i], t.heap[worst] = t.heap[worst], t.heap[i]
		i = worst
	}
}

// Items returns the retained items best-first (score order, Seq tie-break).
// The heap is left intact; the returned slice is fresh.
func (t *TopK[T]) Items() []ScoredItem[T] {
	out := make([]ScoredItem[T], len(t.heap))
	copy(out, t.heap)
	sort.Slice(out, func(i, j int) bool { return t.better(out[i], out[j]) })
	return out
}
