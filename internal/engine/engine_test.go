package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"fdip/internal/core"
	"fdip/internal/program"
	"fdip/internal/workloads"
)

// quickJobs builds a small cross-product sweep: two workloads x three
// prefetch schemes at a short budget.
func quickJobs() []Job {
	var jobs []Job
	for _, wl := range []string{"gcc", "deltablue"} {
		for _, kind := range []core.PrefetcherKind{core.PrefetchNone, core.PrefetchNextLine, core.PrefetchFDP} {
			cfg := core.DefaultConfig()
			cfg.Prefetch.Kind = kind
			jobs = append(jobs, Job{Workload: wl, Config: cfg})
		}
	}
	return jobs
}

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs := quickJobs()
	run := func(workers int) []RunOutcome {
		e := New(WithWorkers(workers), WithInstrBudget(30_000))
		outs, err := e.Sweep(context.Background(), jobs)
		if err != nil {
			t.Fatalf("Sweep(workers=%d): %v", workers, err)
		}
		return outs
	}
	seq := run(1)
	par := run(8)
	if len(seq) != len(jobs) || len(par) != len(jobs) {
		t.Fatalf("outcome counts: %d/%d, want %d", len(seq), len(par), len(jobs))
	}
	for i := range seq {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("job %d errored: seq=%v par=%v", i, seq[i].Err, par[i].Err)
		}
		if seq[i].Result != par[i].Result {
			t.Errorf("job %d (%s): results differ between workers=1 and workers=8",
				i, seq[i].Job.Name)
		}
	}
}

func TestRunMemoises(t *testing.T) {
	e := New(WithWorkers(2), WithInstrBudget(25_000))
	job := Job{Workload: "gcc", Config: core.DefaultConfig()}
	a, err := e.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("memoised result differs")
	}
	st := e.Stats()
	if st.Simulations != 1 {
		t.Errorf("Simulations = %d, want 1", st.Simulations)
	}
	if st.CacheHits != 1 {
		t.Errorf("CacheHits = %d, want 1", st.CacheHits)
	}
	// A different seed is a different run.
	job.Seed = 99
	if _, err := e.Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Simulations; got != 2 {
		t.Errorf("Simulations after new seed = %d, want 2", got)
	}
}

func TestSweepCoalescesDuplicateJobs(t *testing.T) {
	job := Job{Workload: "deltablue", Config: core.DefaultConfig()}
	jobs := []Job{job, job, job, job}
	e := New(WithWorkers(4), WithInstrBudget(25_000))
	outs, err := e.Sweep(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	var cached int
	for _, o := range outs {
		if o.Err != nil {
			t.Fatalf("outcome error: %v", o.Err)
		}
		if o.Cached {
			cached++
		}
	}
	if got := e.Stats().Simulations; got != 1 {
		t.Errorf("Simulations = %d, want 1 (duplicates must coalesce)", got)
	}
	if cached != 3 {
		t.Errorf("cached outcomes = %d, want 3", cached)
	}
}

func TestContextCancellationPrompt(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.MaxInstrs = 1 << 40 // effectively unbounded
	ctx, cancel := context.WithCancel(context.Background())
	e := New(WithWorkers(1))
	done := make(chan error, 1)
	go func() {
		_, err := e.Run(ctx, Job{Workload: "gcc", Config: cfg})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return promptly after cancellation")
	}
}

func TestSweepCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(WithWorkers(2))
	outs, err := e.Sweep(ctx, quickJobs())
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Sweep err = %v, want context.Canceled", err)
	}
	for i, o := range outs {
		if !errors.Is(o.Err, context.Canceled) {
			t.Errorf("outcome %d err = %v, want context.Canceled", i, o.Err)
		}
	}
	// A cancelled run must not poison the cache for a live context.
	outs, err = e.Sweep(context.Background(), quickJobs()[:1])
	if err != nil || outs[0].Err != nil {
		t.Fatalf("post-cancel sweep failed: %v / %v", err, outs[0].Err)
	}
}

func TestFollowerSurvivesLeaderCancellation(t *testing.T) {
	// A follower with a live context must not inherit the leader's
	// context error: when the leader's deadline expires mid-simulation,
	// the follower retries as the new leader.
	cfg := core.DefaultConfig()
	cfg.MaxInstrs = 1_000_000
	job := Job{Workload: "deltablue", Config: cfg}
	e := New(WithWorkers(1))

	leaderCtx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	leaderErr := make(chan error, 1)
	go func() {
		_, err := e.Run(leaderCtx, job)
		leaderErr <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the leader claim the key

	res, err := e.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("follower with live context failed: %v", err)
	}
	if res.Committed < cfg.MaxInstrs {
		t.Errorf("follower committed %d", res.Committed)
	}
	if lerr := <-leaderErr; lerr != nil && !errors.Is(lerr, context.DeadlineExceeded) {
		t.Errorf("leader err = %v", lerr)
	}
}

func TestJobValidation(t *testing.T) {
	e := New(WithWorkers(1), WithInstrBudget(10_000))
	ctx := context.Background()
	p := program.DefaultParams()
	cases := []struct {
		name string
		job  Job
	}{
		{"no program", Job{Config: core.DefaultConfig()}},
		{"both programs", Job{Workload: "gcc", Params: &p, Config: core.DefaultConfig()}},
		{"unknown workload", Job{Workload: "hexray", Config: core.DefaultConfig()}},
		{"bad config", Job{Workload: "gcc", Config: func() core.Config {
			c := core.DefaultConfig()
			c.Prefetch.Kind = "hexray"
			return c
		}()}},
	}
	for _, tc := range cases {
		if _, err := e.Run(ctx, tc.job); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	if got := e.Stats().Failures; got != len(cases) {
		t.Errorf("Failures = %d, want %d", got, len(cases))
	}
}

func TestProgressEvents(t *testing.T) {
	var mu sync.Mutex
	counts := map[EventKind]int{}
	e := New(WithWorkers(4), WithInstrBudget(20_000), WithProgress(func(ev Event) {
		mu.Lock()
		counts[ev.Kind]++
		mu.Unlock()
		if ev.Kind == EventJobDone && ev.Result == nil {
			t.Error("EventJobDone without a result")
		}
		_ = ev.String() // must not panic for any kind
	}))
	job := Job{Workload: "go", Config: core.DefaultConfig()}
	if _, err := e.Sweep(context.Background(), []Job{job, job}); err != nil {
		t.Fatal(err)
	}
	if counts[EventJobStarted] != 1 || counts[EventJobDone] != 1 || counts[EventJobCached] != 1 {
		t.Errorf("event counts = %v, want one started, one done, one cached", counts)
	}
}

func TestImageCacheSingleflight(t *testing.T) {
	c := NewImageCache()
	params := workloads.All()[0].Params
	const callers = 8
	images := make([]*program.Image, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			im, err := c.Get(context.Background(), params)
			if err != nil {
				t.Errorf("Get: %v", err)
			}
			images[i] = im
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if images[i] != images[0] {
			t.Fatal("concurrent Get returned distinct images for one params vector")
		}
	}
	if c.Len() != 1 {
		t.Errorf("cache len = %d, want 1", c.Len())
	}
}

func TestOutcomesJSONRoundTrip(t *testing.T) {
	e := New(WithWorkers(2), WithInstrBudget(20_000))
	jobs := []Job{
		{Workload: "gcc", Config: core.DefaultConfig()},
		{Workload: "hexray", Config: core.DefaultConfig()}, // fails
	}
	outs, err := e.Sweep(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteOutcomesJSON(&buf, outs); err != nil {
		t.Fatalf("WriteOutcomesJSON: %v", err)
	}
	var back []RunOutcome
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round trip decode: %v", err)
	}
	if len(back) != 2 {
		t.Fatalf("decoded %d outcomes", len(back))
	}
	if back[0].Result != outs[0].Result {
		t.Error("result did not survive the JSON round trip")
	}
	if back[1].Err == nil || !strings.Contains(back[1].Err.Error(), "hexray") {
		t.Errorf("error did not survive the JSON round trip: %v", back[1].Err)
	}

	var rbuf bytes.Buffer
	if err := WriteResultJSON(&rbuf, outs[0].Result); err != nil {
		t.Fatalf("WriteResultJSON: %v", err)
	}
	if !strings.Contains(rbuf.String(), "\"IPC\"") {
		t.Error("result JSON missing IPC field")
	}
}
