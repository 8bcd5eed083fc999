package experiments

import (
	"context"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"fdip/internal/dist"
	"fdip/internal/engine"
)

// renderSuiteWith renders every experiment table sequentially through the
// given streamer. Sequential (unlike RunExperiments' concurrent goroutines)
// so each plan's distributed stream runs alone — the point here is merge
// correctness, not suite wall time.
func renderSuiteWith(t *testing.T, opts Options, s Streamer) string {
	t.Helper()
	r := NewRunner(opts)
	r.streamer = s
	var sb strings.Builder
	for _, ex := range ExtendedSuite() {
		tab, err := ex.Run(context.Background(), r)
		if err != nil {
			t.Fatalf("%s: %v", ex.ID, err)
		}
		sb.WriteString(tab.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

// httpWorker starts an in-process HTTP worker — the handler fdipd -listen
// serves — and returns a dialer for it. The server closes when the test
// ends.
func httpWorker(t *testing.T) dist.HTTP {
	srv := httptest.NewServer(dist.NewWorker(2).Handler())
	t.Cleanup(srv.Close)
	return dist.HTTP{URL: srv.URL}
}

// TestDistributedSuiteMatchesGolden is the suite-level proof of the
// distributed path: the full experiment suite, sharded N ways over the HTTP
// wire to a worker that starts cold for each N, must render tables
// byte-identical to the pinned single-process golden, N in {1, 2, 8}.
func TestDistributedSuiteMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole suite per shard count")
	}
	want, err := os.ReadFile(goldenTablesPath)
	if err != nil {
		t.Fatalf("missing pinned tables (run TestExperimentTablesGolden -update first): %v", err)
	}
	for _, shards := range []int{1, 2, 8} {
		opts := goldenOpts()
		got := renderSuiteWith(t, opts, dist.New(dist.Options{
			Dialer:      httpWorker(t),
			Shards:      shards,
			ChunkPoints: 2,
			Instrs:      opts.Instrs, // plans don't bake the budget; the coordinator must apply it
		}))
		if got != string(want) {
			t.Errorf("shards=%d: distributed suite drifted from the pinned single-process tables (first divergence around byte %d)",
				shards, firstDiff(got, string(want)))
		}
	}
}

// TestDistributedSuiteSurvivesWorkerKills re-renders the suite at 2 shards
// while every range's first worker session is killed mid-stream: the
// retry-with-reassignment path must leave the tables byte-identical too.
func TestDistributedSuiteSurvivesWorkerKills(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole suite")
	}
	want, err := os.ReadFile(goldenTablesPath)
	if err != nil {
		t.Fatalf("missing pinned tables: %v", err)
	}
	opts := goldenOpts()
	kd := &killingDialer{inner: httpWorker(t)}
	got := renderSuiteWith(t, opts, dist.New(dist.Options{
		Dialer:      kd,
		Shards:      2,
		ChunkPoints: 2,
		Instrs:      opts.Instrs,
	}))
	if got != string(want) {
		t.Errorf("suite under worker kills drifted from the pinned tables (first divergence around byte %d)",
			firstDiff(got, string(want)))
	}
	if kd.kills() == 0 {
		t.Error("kill injection never fired; test covered nothing")
	}
}

// killingDialer kills the first attempt of every range after one outcome —
// the experiments-side twin of the dist package's chaos dialer, written
// against the exported Dialer/Session surface only.
type killingDialer struct {
	inner dist.Dialer

	mu       sync.Mutex
	killedN  int
	attempts map[int]int
}

func (d *killingDialer) kills() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.killedN
}

func (d *killingDialer) Dial(ctx context.Context) (dist.Session, error) {
	s, err := d.inner.Dial(ctx)
	if err != nil {
		return nil, err
	}
	return &killingSession{d: d, s: s}, nil
}

type killingSession struct {
	d *killingDialer
	s dist.Session
}

func (ks *killingSession) Run(ctx context.Context, a dist.Assignment, emit func(engine.RunOutcome) error) error {
	ks.d.mu.Lock()
	if ks.d.attempts == nil {
		ks.d.attempts = make(map[int]int)
	}
	ks.d.attempts[a.Start]++
	kill := ks.d.attempts[a.Start] == 1
	if kill {
		ks.d.killedN++
	}
	ks.d.mu.Unlock()
	if !kill {
		return ks.s.Run(ctx, a, emit)
	}
	n := 0
	ks.s.Run(ctx, a, func(out engine.RunOutcome) error {
		if n == 0 {
			n++
			return emit(out)
		}
		return context.Canceled // any error: the wrapper discards the session either way
	})
	return &workerKilledError{}
}

func (ks *killingSession) Close() error { return ks.s.Close() }

type workerKilledError struct{}

func (*workerKilledError) Error() string { return "worker killed (injected)" }
