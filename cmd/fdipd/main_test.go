package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"fdip/internal/core"
	"fdip/internal/svc"
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

// fakeClock is resumeStream's clock in tests: sleeping advances it at once.
type fakeClock struct {
	t      time.Time
	sleeps int
}

func (c *fakeClock) now() time.Time { return c.t }

func (c *fakeClock) sleep(_ context.Context, d time.Duration) error {
	c.t = c.t.Add(d)
	c.sleeps++
	return nil
}

// fakeSweep serves a sweep of n frames. A connection made while drained
// reports true ends at once with an error, as a draining service's stream
// does; otherwise it delivers frames from the cursor, up to perConn of them
// when perConn > 0, and ends without a terminal frame if any remain.
type fakeSweep struct {
	n, perConn int
	drained    func() bool
	connects   int
}

func (s *fakeSweep) stream(from int, fn func(svc.StreamFrame) error) error {
	s.connects++
	if s.drained() {
		return errors.New("stream ended without a terminal frame")
	}
	for seq := from; seq < s.n; seq++ {
		if s.perConn > 0 && seq-from == s.perConn {
			return errors.New("stream ended without a terminal frame")
		}
		if err := fn(svc.StreamFrame{Type: "outcome", Seq: seq}); err != nil {
			return err
		}
	}
	return nil
}

// collect runs resumeStream over sw on clk and returns the delivered
// sequence numbers.
func collect(t *testing.T, sw *fakeSweep, clk *fakeClock) ([]int, error) {
	t.Helper()
	var got []int
	err := resumeStream(context.Background(), sw.stream, func(f svc.StreamFrame) { got = append(got, f.Seq) }, clk.now, clk.sleep)
	return got, err
}

// TestResumeOutlastsLongDrain: a stream that fails fast for more than 2 s
// of fake time (the old ten tries 200 ms apart) and then serves the sweep
// is read to its end, each frame once and in order, with backoff keeping
// the reconnects few.
func TestResumeOutlastsLongDrain(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	start := clk.t
	sw := &fakeSweep{n: 6, drained: func() bool { return clk.t.Sub(start) < 5*time.Second }}
	got, err := collect(t, sw, clk)
	if err != nil {
		t.Fatalf("resume failed after %v of fake time: %v", clk.t.Sub(start), err)
	}
	if want := []int{0, 1, 2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Errorf("delivered %v, want %v", got, want)
	}
	if sw.connects > 10 {
		t.Errorf("%d connects over a 5 s drain; want backoff to keep them at most 10", sw.connects)
	}
}

// TestResumeBudget: a stream that never delivers is given up once the
// budget passes, and a frame restarts the budget, so a sweep whose frames
// each arrive after most of a budget's drain still finishes.
func TestResumeBudget(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	start := clk.t
	if _, err := collect(t, &fakeSweep{n: 3, drained: func() bool { return true }}, clk); err == nil {
		t.Fatal("a stream that never delivers was read to its end")
	}
	if waited := clk.t.Sub(start); waited < resumeBudget-resumeMaxWait || waited > resumeBudget {
		t.Errorf("gave up after %v; want within %v of the %v budget", waited, resumeMaxWait, resumeBudget)
	}

	clk = &fakeClock{t: time.Unix(0, 0)}
	start = clk.t
	next := start
	sw := &fakeSweep{n: 5, perConn: 1}
	sw.drained = func() bool {
		if clk.t.Before(next) {
			return true
		}
		next = clk.t.Add(resumeBudget * 3 / 4) // each frame waits out most of a budget
		return false
	}
	got, err := collect(t, sw, clk)
	if err != nil {
		t.Fatalf("resume failed after %v of fake time: %v", clk.t.Sub(start), err)
	}
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(got, want) {
		t.Errorf("delivered %v, want %v", got, want)
	}
	if total := clk.t.Sub(start); total < 2*resumeBudget {
		t.Errorf("the sweep took %v of fake time; want the test to span more than two budgets", total)
	}
}

// TestResumeStopsOnFailedSweep: a failed sweep is final, not a drop.
func TestResumeStopsOnFailedSweep(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	connects := 0
	stream := func(int, func(svc.StreamFrame) error) error {
		connects++
		return fmt.Errorf("boom: %w", svc.ErrSweepFailed)
	}
	err := resumeStream(context.Background(), stream, func(svc.StreamFrame) {}, clk.now, clk.sleep)
	if !errors.Is(err, svc.ErrSweepFailed) || connects != 1 || clk.sleeps != 0 {
		t.Errorf("err %v after %d connects and %d sleeps; want ErrSweepFailed after one connect", err, connects, clk.sleeps)
	}
}
