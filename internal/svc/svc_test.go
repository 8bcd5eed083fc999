package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"fdip/internal/core"
	"fdip/internal/dist"
	"fdip/internal/durable"
	"fdip/internal/engine"
	"fdip/internal/prefetch"
)

// goldenChecksum mirrors internal/engine's pinned constant — the service
// stream must reproduce it through every failure mode.
const goldenChecksum = 0x47bbeda2da5f243e

func testCfg(kind core.PrefetcherKind) core.Config {
	c := core.DefaultConfig()
	c.MaxInstrs = 30_000
	c.Prefetch.Kind = kind
	return c
}

func goldenCfg() core.Config {
	c := core.DefaultConfig()
	c.MaxInstrs = 150_000
	c.Prefetch.Kind = core.PrefetchFDP
	c.Prefetch.FDP.CPF = prefetch.CPFConservative
	return c
}

// testReq is the service-side twin of the dist tests' 6-point plan; index 1
// (gcc x golden) is the engine's pinned golden triple.
func testReq(label string) SubmitRequest {
	return SubmitRequest{
		Label:     label,
		Workloads: []string{"gcc", "deltablue"},
		Configs: []ConfigPoint{
			{Name: "base", Config: testCfg(core.PrefetchNone)},
			{Name: "golden", Config: goldenCfg()},
			{Name: "nextline", Config: testCfg(core.PrefetchNextLine)},
		},
		ChunkPoints: 1, // finest granularity: every point is its own range
	}
}

func resultChecksum(res core.Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", res)
	return h.Sum64()
}

// reference is the single-process truth for a request.
func reference(t *testing.T, req SubmitRequest) []engine.RunOutcome {
	t.Helper()
	p, err := req.Plan()
	if err != nil {
		t.Fatalf("reference plan: %v", err)
	}
	outs := make([]engine.RunOutcome, p.Points())
	for out, err := range engine.New(engine.WithWorkers(4)).Stream(context.Background(), p) {
		if err != nil || out.Err != nil {
			t.Fatalf("reference stream: %v / %v", err, out.Err)
		}
		outs[out.Index] = out
	}
	return outs
}

// requireIdentical pins service outcomes (indexed) against the reference —
// names, result checksums, and the golden point.
func requireIdentical(t *testing.T, label string, ref, got []engine.RunOutcome) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: %d outcomes, want %d", label, len(got), len(ref))
	}
	for i := range ref {
		if got[i].Err != nil {
			t.Fatalf("%s: point %d (%s): %v", label, i, got[i].Job.Name, got[i].Err)
		}
		if got[i].Job.Name != ref[i].Job.Name {
			t.Errorf("%s: point %d named %q, want %q", label, i, got[i].Job.Name, ref[i].Job.Name)
		}
		if a, b := resultChecksum(got[i].Result), resultChecksum(ref[i].Result); a != b {
			t.Errorf("%s: point %d (%s): checksum %#x != single-process %#x", label, i, got[i].Job.Name, a, b)
		}
	}
	if got := resultChecksum(got[1].Result); got != goldenChecksum {
		t.Errorf("%s: golden point checksum %#x, want pinned %#x", label, got, goldenChecksum)
	}
}

// workerCounter tallies jobs actually shipped to a worker process — the
// accounting that proves cache hits and journal replays never re-execute.
// hold, when set, is called with each assign's indices before the worker
// runs it, and may block.
type workerCounter struct {
	mu   sync.Mutex
	jobs int
	hold func(indices []int)
}

func (wc *workerCounter) shipped() int {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return wc.jobs
}

// countingWorker is a real dist worker behind a middleware that counts the
// jobs in each assign frame.
func countingWorker(wc *workerCounter) *httptest.Server {
	inner := dist.NewWorker(2).Handler()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var fr struct {
			Assign struct {
				Jobs    []json.RawMessage `json:"jobs"`
				Indices []int             `json:"indices"`
			} `json:"assign"`
		}
		_ = json.Unmarshal(body, &fr)
		if wc.hold != nil {
			wc.hold(fr.Assign.Indices)
		}
		wc.mu.Lock()
		wc.jobs += len(fr.Assign.Jobs)
		wc.mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		inner.ServeHTTP(w, r)
	}))
}

// service boots a server over dir and mounts it on an httptest listener.
func service(t *testing.T, dir string, opts Options) (*Server, *Client, func()) {
	t.Helper()
	opts.StateDir = dir
	s, err := New(opts)
	if err != nil {
		t.Fatalf("svc.New: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	cleanup := func() {
		hs.Close()
		if err := s.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}
	return s, &Client{Base: hs.URL}, cleanup
}

// collect streams a finished (or finishing) job fully and indexes outcomes.
func collect(t *testing.T, c *Client, id string, points int) []engine.RunOutcome {
	t.Helper()
	outs := make([]engine.RunOutcome, points)
	seen := make([]bool, points)
	err := c.Stream(context.Background(), id, 0, func(f StreamFrame) error {
		out := *f.Outcome
		if out.Index < 0 || out.Index >= points || seen[out.Index] {
			return fmt.Errorf("frame %d: bad or duplicate index %d", f.Seq, out.Index)
		}
		seen[out.Index] = true
		outs[out.Index] = out
		return nil
	})
	if err != nil {
		t.Fatalf("stream %s: %v", id, err)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("stream %s never delivered point %d", id, i)
		}
	}
	return outs
}

// Workers snapshots the live worker pool.
func (c *Client) Workers(ctx context.Context) ([]dist.WorkerInfo, error) {
	var ws []dist.WorkerInfo
	err := c.do(ctx, http.MethodGet, "/v1/workers", nil, &ws)
	return ws, err
}

// TestServiceStreamsGolden is the tentpole happy path: two self-registered
// workers, one HTTP submission, one streamed result set — bit-identical to
// the single-process engine, golden checksum included.
func TestServiceStreamsGolden(t *testing.T) {
	req := testReq("golden-run")
	ref := reference(t, req)

	_, c, done := service(t, t.TempDir(), Options{Shards: 2})
	defer done()
	w1, w2 := httptest.NewServer(dist.NewWorker(2).Handler()), httptest.NewServer(dist.NewWorker(2).Handler())
	defer w1.Close()
	defer w2.Close()
	ctx := context.Background()
	if err := c.Register(ctx, "w1", w1.URL, time.Minute); err != nil {
		t.Fatalf("register w1: %v", err)
	}
	if err := c.Register(ctx, "w2", w2.URL, time.Minute); err != nil {
		t.Fatalf("register w2: %v", err)
	}
	ws, err := c.Workers(ctx)
	if err != nil || len(ws) != 2 {
		t.Fatalf("workers = %v / %v, want 2 live", ws, err)
	}

	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.State != StateQueued || st.Points != len(ref) {
		t.Fatalf("accepted status %+v", st)
	}
	outs := collect(t, c, st.ID, len(ref))
	requireIdentical(t, "service", ref, outs)

	final, err := c.Job(ctx, st.ID)
	if err != nil || final.State != StateDone || final.Completed != len(ref) {
		t.Fatalf("final status %+v / %v", final, err)
	}
}

// TestServiceHostileConfigFailsFast: a submitted config with a table count
// no machine could hold (an FTB of 2^62+1 sets, whose power-of-two round-up
// once spun forever inside the worker) fails its own points at validation,
// and the service finishes the sweep and runs the next one.
func TestServiceHostileConfigFailsFast(t *testing.T) {
	_, c, done := service(t, t.TempDir(), Options{Shards: 1})
	defer done()
	w := httptest.NewServer(dist.NewWorker(1).Handler())
	defer w.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Register(ctx, "w", w.URL, time.Minute); err != nil {
		t.Fatalf("register: %v", err)
	}
	hostile := testCfg(core.PrefetchNone)
	hostile.FTB.Sets = 1<<62 + 1
	for _, req := range []SubmitRequest{
		{Workloads: []string{"gcc"}, Configs: []ConfigPoint{{Name: "hostile", Config: hostile}, {Name: "base", Config: testCfg(core.PrefetchNone)}}},
		{Workloads: []string{"deltablue"}, Configs: []ConfigPoint{{Name: "base", Config: testCfg(core.PrefetchNone)}}},
	} {
		st, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		var outs []engine.RunOutcome
		if err := c.Stream(ctx, st.ID, 0, func(f StreamFrame) error {
			outs = append(outs, *f.Outcome)
			return nil
		}); err != nil {
			t.Fatalf("stream %s: %v", st.ID, err)
		}
		for _, out := range outs {
			if hostileRow := out.Job.Name == "gcc/hostile"; (out.Err != nil) != hostileRow {
				t.Errorf("%s: %s error %v", st.ID, out.Job.Name, out.Err)
			}
		}
		if len(outs) != st.Points {
			t.Fatalf("%s: %d outcomes, want %d", st.ID, len(outs), st.Points)
		}
	}
}

// TestServiceSurvivesWorkerKill hard-closes one of two workers mid-sweep; the
// registry must evict it, retries must drain its ranges onto the survivor,
// and the stream must still be bit-identical.
func TestServiceSurvivesWorkerKill(t *testing.T) {
	req := testReq("kill-run")
	ref := reference(t, req)

	_, c, done := service(t, t.TempDir(), Options{Shards: 2})
	defer done()
	w1, w2 := httptest.NewServer(dist.NewWorker(2).Handler()), httptest.NewServer(dist.NewWorker(2).Handler())
	defer w1.Close()
	ctx := context.Background()
	c.Register(ctx, "w1", w1.URL, time.Minute)
	c.Register(ctx, "w2", w2.URL, time.Minute)

	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	outs := make([]engine.RunOutcome, len(ref))
	seen := make([]bool, len(ref))
	killed := false
	err = c.Stream(ctx, st.ID, 0, func(f StreamFrame) error {
		if !killed {
			killed = true
			w2.CloseClientConnections()
			w2.Close() // SIGKILL stand-in after the first delivered range
		}
		out := *f.Outcome
		if seen[out.Index] {
			return fmt.Errorf("point %d delivered twice", out.Index)
		}
		seen[out.Index] = true
		outs[out.Index] = out
		return nil
	})
	if err != nil {
		t.Fatalf("stream under worker kill: %v", err)
	}
	requireIdentical(t, "worker-kill", ref, outs)
}

// TestServiceClientReconnect drops the stream after two frames and resumes
// with from=2: the client must see every frame exactly once across the two
// connections, and the reassembled set must be bit-identical.
func TestServiceClientReconnect(t *testing.T) {
	req := testReq("reconnect-run")
	ref := reference(t, req)

	_, c, done := service(t, t.TempDir(), Options{Shards: 2})
	defer done()
	w := httptest.NewServer(dist.NewWorker(2).Handler())
	defer w.Close()
	ctx := context.Background()
	c.Register(ctx, "w", w.URL, time.Minute)

	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	outs := make([]engine.RunOutcome, len(ref))
	seen := make([]bool, len(ref))
	record := func(f StreamFrame) error {
		out := *f.Outcome
		if seen[out.Index] {
			return fmt.Errorf("point %d delivered twice across reconnect", out.Index)
		}
		seen[out.Index] = true
		outs[out.Index] = out
		return nil
	}

	// Connection 1: take two frames, then "drop".
	errDrop := errors.New("simulated disconnect")
	got := 0
	err = c.Stream(ctx, st.ID, 0, func(f StreamFrame) error {
		if f.Seq != got {
			return fmt.Errorf("frame seq %d, want %d", f.Seq, got)
		}
		if err := record(f); err != nil {
			return err
		}
		got++
		if got == 2 {
			return errDrop
		}
		return nil
	})
	if !errors.Is(err, errDrop) {
		t.Fatalf("connection 1 ended with %v, want the injected drop", err)
	}

	// Connection 2: resume exactly where the cursor left off.
	err = c.Stream(ctx, st.ID, got, func(f StreamFrame) error {
		if f.Seq != got {
			return fmt.Errorf("resumed frame seq %d, want %d", f.Seq, got)
		}
		got++
		return record(f)
	})
	if err != nil {
		t.Fatalf("resumed stream: %v", err)
	}
	if got != len(ref) {
		t.Fatalf("saw %d frames across reconnect, want %d", got, len(ref))
	}
	requireIdentical(t, "reconnect", ref, outs)
}

// TestServiceCacheServesOverlap submits a second sweep overlapping the first
// on 4 of 6 points: the status accounting must show exactly 4 cache-served
// points, the workers must receive exactly the 2 new ones, and the stream
// must match the second sweep's own single-process reference bit-identically.
func TestServiceCacheServesOverlap(t *testing.T) {
	reqA := testReq("first")
	reqB := SubmitRequest{
		Label:     "overlap",
		Workloads: []string{"gcc", "deltablue"},
		Configs: []ConfigPoint{
			{Name: "base", Config: testCfg(core.PrefetchNone)},
			{Name: "golden", Config: goldenCfg()},
			{Name: "fdp30k", Config: testCfg(core.PrefetchFDP)}, // the only new column
		},
		ChunkPoints: 3, // ranges straddle hits and misses: sparse assignments
	}
	refB := reference(t, reqB)

	_, c, done := service(t, t.TempDir(), Options{Shards: 2})
	defer done()
	wc := &workerCounter{}
	w := countingWorker(wc)
	defer w.Close()
	ctx := context.Background()
	c.Register(ctx, "w", w.URL, time.Minute)

	stA, err := c.Submit(ctx, reqA)
	if err != nil {
		t.Fatalf("submit A: %v", err)
	}
	collect(t, c, stA.ID, 6)
	if n := wc.shipped(); n != 6 {
		t.Fatalf("sweep A shipped %d jobs, want all 6", n)
	}

	stB, err := c.Submit(ctx, reqB)
	if err != nil {
		t.Fatalf("submit B: %v", err)
	}
	outs := collect(t, c, stB.ID, len(refB))
	requireIdentical(t, "overlap", refB, outs)

	if n := wc.shipped() - 6; n != 2 {
		t.Errorf("sweep B shipped %d jobs to workers, want exactly the 2 uncached points", n)
	}
	final, err := c.Job(ctx, stB.ID)
	if err != nil {
		t.Fatalf("status B: %v", err)
	}
	if final.Cached != 4 {
		t.Errorf("sweep B Cached=%d, want 4 (the overlap)", final.Cached)
	}
	for _, out := range outs {
		wantCached := out.Job.Name != "gcc/fdp30k" && out.Job.Name != "deltablue/fdp30k"
		if out.Cached != wantCached {
			t.Errorf("point %d (%s): Cached=%v, want %v", out.Index, out.Job.Name, out.Cached, wantCached)
		}
	}
}

// TestServiceBackpressure pins the queue bound: with MaxQueued=1 and a sweep
// parked on an empty worker pool, the next submission must be rejected with
// 429 / ErrQueueFull — and shutdown must still drain cleanly (no workers ever
// arrive; the parked dial must abort, not deadlock).
func TestServiceBackpressure(t *testing.T) {
	s, c, done := service(t, t.TempDir(), Options{Shards: 1, MaxQueued: 1})
	ctx := context.Background()

	st, err := c.Submit(ctx, testReq("parked"))
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	// Wait for the scheduler to claim it (running, blocked dialing).
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := c.Job(ctx, st.ID)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if got.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never started; status %+v", got)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if _, err := c.Submit(ctx, testReq("rejected")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second submit returned %v, want ErrQueueFull (HTTP 429)", err)
	}

	done() // must not deadlock on the empty pool
	if got, ok := s.Job(st.ID); !ok || got.State != StateQueued {
		t.Errorf("after drain, parked sweep status %+v; want re-queued", got)
	}
}

// TestServicePriorityOrder pins the queue discipline with the completion
// order of the queue journal's done records: among sweeps queued behind a
// parked one, the high-priority latecomer finishes before the earlier
// low-priority submission, which still beats its same-priority successor
// (FIFO within a level).
func TestServicePriorityOrder(t *testing.T) {
	small := func(label string, prio int) SubmitRequest {
		return SubmitRequest{
			Label:     label,
			Priority:  prio,
			Workloads: []string{"gcc"},
			Configs:   []ConfigPoint{{Name: "base", Config: testCfg(core.PrefetchNone)}},
		}
	}
	dir := t.TempDir()
	_, c, done := service(t, dir, Options{Shards: 1})
	ctx := context.Background()

	// No workers yet: first submission parks in "running", the rest queue.
	first, _ := c.Submit(ctx, small("first", 0))
	lowA, _ := c.Submit(ctx, small("low-a", 0))
	lowB, _ := c.Submit(ctx, small("low-b", 0))
	high, _ := c.Submit(ctx, small("high", 5))

	w := httptest.NewServer(dist.NewWorker(2).Handler())
	defer w.Close()
	c.Register(ctx, "w", w.URL, time.Minute)

	labels := map[string]string{}
	for _, st := range []JobStatus{first, lowA, lowB, high} {
		if err := c.Stream(ctx, st.ID, 0, func(StreamFrame) error { return nil }); err != nil {
			t.Fatalf("stream %s: %v", st.Label, err)
		}
		labels[st.ID] = st.Label
	}
	done()

	q, records, err := durable.Open[queueRecord](filepath.Join(dir, "queue.journal"), nil)
	if err != nil {
		t.Fatalf("reopen queue journal: %v", err)
	}
	q.Close(false)
	var order []string
	for _, rec := range records {
		if rec.Op == "done" {
			order = append(order, labels[rec.ID])
		}
	}
	if want := []string{"first", "high", "low-a", "low-b"}; !slices.Equal(order, want) {
		t.Errorf("completion order %v; want %v", order, want)
	}
}

// TestServiceRestartResumes is the end-to-end persistence proof: quiesce a
// server mid-sweep, boot a second one over the same state dir, and the sweep
// must finish with no point executed twice (worker-side job accounting);
// an identical resubmission is then served wholly from the journal-primed
// cache — zero new worker jobs — and both streams are bit-identical. A
// client's cursor survives the restart: it reads part of the stream from the
// first incarnation, whose drain ends the stream as a dropped connection, not
// a failed sweep, and resumes from its cursor on the second, receiving every
// remaining row once. Every frame's Seq is its outcome's Index.
func TestServiceRestartResumes(t *testing.T) {
	req := testReq("restart-run")
	ref := reference(t, req)
	dir := t.TempDir()
	// Ranges 3 and up wait for the release, which follows the drain: points
	// 0-2 finish in incarnation 1 whichever shard is faster, and the two
	// shards then hold ranges 3 and 4, so range 5 is never dispatched there.
	release := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }
	wc := &workerCounter{hold: func(indices []int) {
		if len(indices) > 0 && indices[len(indices)-1] >= 3 {
			<-release
		}
	}}
	w := countingWorker(wc)
	defer w.Close()
	defer open() // a failing test must not strand the held requests
	ctx := context.Background()

	got := make([]engine.RunOutcome, len(ref))
	seen := make([]bool, len(ref))
	cursor := 0
	record := func(f StreamFrame) error {
		out := *f.Outcome
		switch {
		case f.Seq != cursor:
			return fmt.Errorf("frame seq %d, want cursor %d", f.Seq, cursor)
		case out.Index != f.Seq:
			return fmt.Errorf("frame %d carries point %d; want plan order", f.Seq, out.Index)
		case seen[out.Index]:
			return fmt.Errorf("point %d delivered twice", out.Index)
		}
		seen[out.Index] = true
		got[out.Index] = out
		cursor++
		return nil
	}

	// Incarnation 1: read three frames, then drain.
	s1, c1, _ := service(t, dir, Options{Shards: 2})
	c1.Register(ctx, "w", w.URL, time.Minute)
	st, err := c1.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	shut := make(chan error, 1)
	err = c1.Stream(ctx, st.ID, 0, func(f StreamFrame) error {
		if err := record(f); err != nil {
			return err
		}
		if cursor == 3 {
			go func() { shut <- s1.Shutdown() }()
			for !dist.Quiesced(s1.quiesce) {
				time.Sleep(time.Millisecond)
			}
			open()
		}
		return nil
	})
	if err == nil || errors.Is(err, ErrSweepFailed) {
		t.Fatalf("incarnation 1 stream ended with %v after %d frames; want a dropped connection", err, cursor)
	}
	if cursor < 3 {
		t.Fatalf("incarnation 1 stream ended after %d frames (%v), before the drain", cursor, err)
	}
	if err := <-shut; err != nil {
		t.Fatalf("shutdown 1: %v", err)
	}

	// Incarnation 2: same state dir, same worker. The sweep must resume and
	// finish; across both incarnations every point ships at most once.
	_, c2, done2 := service(t, dir, Options{Shards: 2})
	defer done2()
	c2.Register(ctx, "w", w.URL, time.Minute)
	if err := c2.Stream(ctx, st.ID, cursor, record); err != nil {
		t.Fatalf("stream resumed from cursor %d: %v", cursor, err)
	}
	if cursor != len(ref) {
		t.Fatalf("cursor ends at %d, want %d", cursor, len(ref))
	}
	requireIdentical(t, "cursor", ref, got)
	outs := collect(t, c2, st.ID, len(ref))
	requireIdentical(t, "restart", ref, outs)
	if n := wc.shipped(); n != len(ref) {
		t.Errorf("%d jobs shipped across both incarnations, want %d (resume must not re-execute journaled ranges)", n, len(ref))
	}

	// Identical resubmission: the journal-primed cache serves everything.
	st2, err := c2.Submit(ctx, req)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	outs2 := collect(t, c2, st2.ID, len(ref))
	requireIdentical(t, "resubmit", ref, outs2)
	if n := wc.shipped(); n != len(ref) {
		t.Errorf("resubmission shipped %d new jobs, want 0 (cache must serve the whole plan)", n-len(ref))
	}
	final, _ := c2.Job(ctx, st2.ID)
	if final.Cached != len(ref) {
		t.Errorf("resubmission Cached=%d, want %d", final.Cached, len(ref))
	}
}

// TestRestoreNeverReissuesIDs pins id allocation across a restart: a
// journaled submission that no longer plans still consumes its id, and an
// id journaled twice restores only its first submission, so the next Submit
// gets a fresh id instead of overwriting a live sweep (and sharing its dist
// journal).
func TestRestoreNeverReissuesIDs(t *testing.T) {
	dir := t.TempDir()
	poisoned := testReq("poisoned")
	poisoned.Workloads = []string{"no-such-workload"}
	first, second := testReq("first"), testReq("second")
	journalQueue(t, dir,
		queueRecord{Op: "submit", ID: "s000001", Req: &poisoned},
		queueRecord{Op: "submit", ID: "s000002", Req: &first},
		queueRecord{Op: "submit", ID: "s000002", Req: &second})

	s, _, done := service(t, dir, Options{Shards: 1})
	defer done()
	if got, ok := s.Job("s000002"); !ok || got.Label != "first" {
		t.Fatalf("restored s000002 = %+v (found %v), want the first submission", got, ok)
	}
	st, err := s.Submit(testReq("fresh"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.ID != "s000003" {
		t.Errorf("Submit after restart issued %s, want s000003", st.ID)
	}
	if got, ok := s.Job("s000002"); !ok || got.Label != "first" {
		t.Errorf("s000002 after Submit = %+v (found %v), want the first submission", got, ok)
	}
	if n := len(s.Jobs()); n != 2 {
		t.Errorf("%d jobs after restart and one Submit, want 2", n)
	}
}

// journalQueue appends recs to the queue journal in dir, as an earlier
// service run (or a forger) would have.
func journalQueue(t *testing.T, dir string, recs ...queueRecord) {
	t.Helper()
	q, _, err := durable.Open[queueRecord](filepath.Join(dir, "queue.journal"), nil)
	if err != nil {
		t.Fatalf("open queue journal: %v", err)
	}
	for _, rec := range recs {
		if err := q.Append(rec, false); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := q.Close(false); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreNeverWrapsIDs: a journaled submit whose id Submit could not have
// written — here the largest int, whose successor wrapped negative — names no
// sweep. Restore used to take its ordinal, so Submit issued
// s-9223372036854775808, and after a second restart issued that id again,
// overwriting the sweep that held it. And at the last ordinal Submit may
// issue, Submit refuses instead of wrapping.
func TestRestoreNeverWrapsIDs(t *testing.T) {
	dir := t.TempDir()
	forged := testReq("forged")
	journalQueue(t, dir, queueRecord{Op: "submit", ID: "s9223372036854775807", Req: &forged})
	labels := map[string]string{}
	for _, label := range []string{"a", "b"} {
		s, _, done := service(t, dir, Options{Shards: 1})
		st, err := s.Submit(testReq(label))
		if err != nil {
			t.Fatalf("submit %s: %v", label, err)
		}
		if prev, dup := labels[st.ID]; dup {
			t.Errorf("Submit reissued %s (sweep %q) to sweep %q", st.ID, prev, label)
		}
		labels[st.ID] = label
		done()
	}
	s, _, done := service(t, dir, Options{Shards: 1})
	for id, label := range labels {
		if got, ok := s.Job(id); !ok || got.Label != label {
			t.Errorf("restored %s = %+v (found %v), want sweep %q", id, got, ok, label)
		}
	}
	if got, ok := s.Job("s9223372036854775807"); ok {
		t.Errorf("restored a sweep under an id Submit cannot write: %+v", got)
	}
	done()

	last := t.TempDir()
	journalQueue(t, last, queueRecord{Op: "submit", ID: sweepID(math.MaxInt - 1), Req: &forged})
	s, _, done = service(t, last, Options{Shards: 1})
	defer done()
	if st, err := s.Submit(testReq("past the last id")); err == nil {
		t.Errorf("Submit after ordinal MaxInt-1 issued %s, want an error", st.ID)
	}
	if n := len(s.Jobs()); n != 1 {
		t.Errorf("%d jobs, want the restored one", n)
	}
}

// TestShutdownTwice: a second Shutdown returns the first one's result. It
// used to close the queue journal again and fail with "file already closed".
func TestShutdownTwice(t *testing.T) {
	s, err := New(Options{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		if err := s.Shutdown(); err != nil {
			t.Errorf("Shutdown call %d: %v", i+1, err)
		}
	}
}

// TestQueueJournalTornTail pins the queue journal's crash discipline: a torn
// final line is truncated at open, every complete record before it survives.
func TestQueueJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/queue.journal"
	q, records, err := durable.Open[queueRecord](path, nil)
	if err != nil {
		t.Fatalf("open fresh: %v", err)
	}
	if len(records) != 0 {
		t.Fatalf("fresh journal has %d records", len(records))
	}
	req := testReq("torn")
	if err := q.Append(queueRecord{Op: "submit", ID: "s000001", Req: &req}, true); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := q.Append(queueRecord{Op: "done", ID: "s000001"}, false); err != nil {
		t.Fatalf("append: %v", err)
	}
	q.Close(true)
	// Crash mid-append: half a record, no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(`{"op":"submit","id":"s0000`)); err != nil {
		t.Fatalf("tear: %v", err)
	}
	f.Close()

	q2, records, err := durable.Open[queueRecord](path, nil)
	if err != nil {
		t.Fatalf("reopen torn: %v", err)
	}
	defer q2.Close(false)
	if len(records) != 2 || records[0].Op != "submit" || records[1].Op != "done" {
		t.Fatalf("torn reopen records = %+v, want the 2 complete ones", records)
	}
	if records[0].Req == nil || records[0].Req.Label != "torn" {
		t.Fatalf("submit record lost its request: %+v", records[0])
	}
	// And the journal must be appendable again at the truncated offset.
	if err := q2.Append(queueRecord{Op: "failed", ID: "s000002", Error: "x"}, true); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
}
