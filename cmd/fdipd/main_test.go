package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"fdip/internal/core"
)

// summaryRows is a fixed 9-point sweep in index order: two IPC ties (rows 1
// and 4, rows 2 and 5), one failed row (3) and one value past the
// histogram's [0, 8) range (6).
func summaryRows() []row {
	ipcs := []float64{1.25, 0.75, 2.5, 0, 0.75, 2.5, 9.5, 1.1, 0.3}
	rows := make([]row, len(ipcs))
	for i, v := range ipcs {
		rows[i] = row{Index: i, Name: fmt.Sprintf("w%d/c%d", i/3, i%3), Result: core.Result{IPC: v}}
	}
	rows[3].Error = "boom"
	return rows
}

// summaryK2 is the summary of summaryRows at topk 2, as the streaming
// reducer it replaced printed it for the same rows folded in index order.
// At k=2 each tie straddles the cut, so the lower index must win the last
// slot on both ends.
const summaryK2 = "IPC: n=8 mean=2.3312 stddev=2.8120 p50=1.2500 p90=9.5000 failures=1\n" +
	"  top    w2/c0                                    9.5000\n" +
	"  top    w0/c2                                    2.5000\n" +
	"  bottom w2/c2                                    0.3000\n" +
	"  bottom w0/c1                                    0.7500\n" +
	"  hist[0,8)/32: [0.25,0.5):1 [0.75,1):2 [1,1.25):1 [1.25,1.5):1 [2.5,2.75):2 >=8:1"

func TestSummarizePinned(t *testing.T) {
	if got := summarize(summaryRows(), 2); got != summaryK2 {
		t.Errorf("summary:\n%s\nwant\n%s", got, summaryK2)
	}
}

// TestSummarizeArrivalOrder: rows that arrive shuffled and are then sorted
// by index, as runCoordinator sorts them, summarize to the same bytes.
func TestSummarizeArrivalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 8; trial++ {
		rows := summaryRows()
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		sort.Slice(rows, func(i, j int) bool { return rows[i].Index < rows[j].Index })
		if got := summarize(rows, 2); got != summaryK2 {
			t.Fatalf("trial %d: summary:\n%s\nwant\n%s", trial, got, summaryK2)
		}
	}
}

// TestSummarizeKBeyondRows: a topk above the row count lists every
// successful row on each side, best-first, ties toward the lower index.
func TestSummarizeKBeyondRows(t *testing.T) {
	var top, bottom []string
	for _, line := range strings.Split(summarize(summaryRows(), 20), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 3 && f[0] == "top":
			top = append(top, f[1])
		case len(f) == 3 && f[0] == "bottom":
			bottom = append(bottom, f[1])
		}
	}
	wantTop := "w2/c0 w0/c2 w1/c2 w0/c0 w2/c1 w0/c1 w1/c1 w2/c2"
	wantBottom := "w2/c2 w0/c1 w1/c1 w2/c1 w0/c0 w0/c2 w1/c2 w2/c0"
	if g := strings.Join(top, " "); g != wantTop {
		t.Errorf("top = %s, want %s", g, wantTop)
	}
	if g := strings.Join(bottom, " "); g != wantBottom {
		t.Errorf("bottom = %s, want %s", g, wantBottom)
	}
}

// TestSummarizeMoments: the one-pass mean and population stddev match a
// two-pass computation over random IPCs, and the summary counts every row.
func TestSummarizeMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 7, 100, 1000} {
		rows := make([]row, n)
		var sum float64
		for i := range rows {
			rows[i] = row{Index: i, Name: "p", Result: core.Result{IPC: 4 * rng.Float64()}}
			sum += rows[i].Result.IPC
		}
		wantMean := sum / float64(n)
		var ss float64
		for _, r := range rows {
			d := r.Result.IPC - wantMean
			ss += d * d
		}
		wantStd := math.Sqrt(ss / float64(n))
		if mean, stddev := moments(rows); math.Abs(mean-wantMean) > 1e-12 || math.Abs(stddev-wantStd) > 1e-12 {
			t.Errorf("n=%d: mean/stddev %v/%v, want %v/%v", n, mean, stddev, wantMean, wantStd)
		}
		head := fmt.Sprintf("IPC: n=%d mean=%.4f stddev=%.4f ", n, wantMean, wantStd)
		if got := summarize(rows, 0); !strings.HasPrefix(got, head) {
			t.Errorf("n=%d: summary %q, want prefix %q", n, got, head)
		}
	}
}
