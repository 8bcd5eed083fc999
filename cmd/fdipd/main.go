// fdipd is the distributed-sweep daemon. Modes:
//
//	fdipd -listen :8080 [-workers N]   HTTP worker: serves the dist wire
//	                                   protocol at POST /v1/run. With
//	                                   -register URL it also announces itself
//	                                   to a sweep service and heartbeats until
//	                                   shutdown (self-registration).
//	fdipd -serve :9090 -state DIR      sweep service: persistent job queue,
//	                                   shared result cache, streaming clients,
//	                                   self-registering workers. SIGINT/SIGTERM
//	                                   drains gracefully: in-flight ranges
//	                                   finish and checkpoint, interrupted
//	                                   sweeps re-queue, and a restart over the
//	                                   same -state resumes them.
//	fdipd -submit URL [flags]          client: submit the built-in demo plan to
//	                                   a service, stream its results (resuming
//	                                   from its frame cursor through transport
//	                                   drops and service restarts: frames are
//	                                   in plan order in every incarnation),
//	                                   and print the same sorted NDJSON rows
//	                                   as -coordinate.
//	fdipd -watch URL -job ID [-from N] client: follow one sweep's raw stream
//	                                   frames from cursor N.
//	fdipd -coordinate [flags]          single-process reference: runs the demo
//	                                   plan on the in-process engine and prints
//	                                   one NDJSON row per point (sorted by
//	                                   index, deterministic fields only) on
//	                                   stdout, and on stderr an IPC summary
//	                                   computed from those sorted rows, so
//	                                   it does not depend on -workers. Every
//	                                   -submit of the same plan must byte-diff
//	                                   clean against it.
//
// With no mode flag fdipd prints its usage and exits 2.
//
// Plan flags: -instrs (per-point budget, baked into the demo plan's configs),
// -chunk (points per journaled range), -topk (points listed per side in the
// -coordinate summary). -shards sets the service's concurrent worker
// sessions per sweep.
//
// Service quickstart (one service, two self-registered workers, one client):
//
//	fdipd -serve :9090 -state /tmp/fdipd &
//	fdipd -listen :0 -register http://localhost:9090 &
//	fdipd -listen :0 -register http://localhost:9090 &
//	fdipd -submit http://localhost:9090 > service.ndjson
//	fdipd -coordinate > single.ndjson
//	diff service.ndjson single.ndjson        # must be empty: bit-identical
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"sort"
	"syscall"
	"time"

	"fdip/internal/core"
	"fdip/internal/dist"
	"fdip/internal/engine"
	"fdip/internal/stats"
	"fdip/internal/svc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fdipd: ")
	var (
		workers    = flag.Int("workers", 0, "concurrent simulations per worker engine (0 = GOMAXPROCS)")
		listen     = flag.String("listen", "", "serve the HTTP worker protocol on this address")
		register   = flag.String("register", "", "worker: sweep-service URL to self-register with (heartbeats until shutdown)")
		advertise  = flag.String("advertise", "", "worker: URL the service should dial back (default http://127.0.0.1:<listen port>)")
		workerID   = flag.String("worker-id", "", "worker: stable registration id (default host-pid)")
		serve      = flag.String("serve", "", "run the sweep service on this address")
		state      = flag.String("state", "", "service: state directory (queue + sweep journals; required with -serve)")
		maxQueued  = flag.Int("max-queued", 16, "service: max queued+running sweeps before submissions get 429")
		ttl        = flag.Duration("ttl", 15*time.Second, "service/worker: registration heartbeat budget")
		submit     = flag.String("submit", "", "submit the demo plan to this sweep-service URL and stream results")
		watch      = flag.String("watch", "", "follow a sweep's stream frames from this sweep-service URL")
		job        = flag.String("job", "", "watch: sweep id")
		from       = flag.Int("from", 0, "watch: resume cursor (frames already seen)")
		label      = flag.String("label", "", "submit: sweep label")
		priority   = flag.Int("priority", 0, "submit: queue priority (higher runs first)")
		coordinate = flag.Bool("coordinate", false, "run the built-in demo plan single-process: the reference every service sweep diffs against")
		shards     = flag.Int("shards", 2, "service: concurrent worker sessions per sweep")
		chunk      = flag.Int("chunk", 2, "service/submit: plan points per journaled range")
		instrs     = flag.Uint64("instrs", 50_000, "committed-instruction budget per demo-plan point")
		topk       = flag.Int("topk", 3, "coordinate: points listed per side in the IPC summary")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *serve != "":
		err = runService(ctx, *serve, *state, *shards, *chunk, *maxQueued, *ttl)
	case *submit != "":
		err = runSubmit(ctx, *submit, *label, *priority, *instrs, *chunk)
	case *watch != "":
		err = runWatch(ctx, *watch, *job, *from)
	case *coordinate:
		err = runCoordinator(ctx, *instrs, *workers, *topk)
	case *listen != "":
		err = runWorker(ctx, *listen, *register, *advertise, *workerID, *ttl, *workers)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// runService hosts the sweep service until a signal, then drains: the HTTP
// listener keeps serving while svc.Shutdown quiesces the scheduler (in-flight
// ranges checkpoint, live streams get their terminal frames), and only then
// does the listener close.
func runService(ctx context.Context, addr, state string, shards, chunk, maxQueued int, ttl time.Duration) error {
	if state == "" {
		return fmt.Errorf("-serve requires -state DIR")
	}
	s, err := svc.New(svc.Options{
		StateDir:    state,
		Shards:      shards,
		ChunkPoints: chunk,
		MaxQueued:   maxQueued,
		WorkerTTL:   ttl,
	})
	if err != nil {
		return err
	}
	srv := &http.Server{Addr: addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() {
		log.Printf("sweep service on %s (state %s)", addr, state)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		s.Shutdown()
		return err
	case <-ctx.Done():
	}
	log.Printf("draining: in-flight ranges will checkpoint")
	if err := s.Shutdown(); err != nil {
		srv.Close()
		return err
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		srv.Close()
	}
	log.Printf("drained cleanly")
	return nil
}

// runWorker serves the HTTP worker protocol, optionally self-registering with
// a sweep service and heartbeating until shutdown.
func runWorker(ctx context.Context, listen, register, advertise, id string, ttl time.Duration, workers int) error {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	wk := dist.NewWorker(workers)
	mux := http.NewServeMux()
	mux.Handle("/v1/run", wk.Handler())
	srv := &http.Server{Handler: mux}

	hbCtx, hbStop := context.WithCancel(ctx)
	defer hbStop()
	if register != "" {
		if advertise == "" {
			_, port, err := net.SplitHostPort(ln.Addr().String())
			if err != nil {
				return fmt.Errorf("derive -advertise from %s: %w", ln.Addr(), err)
			}
			advertise = "http://127.0.0.1:" + port
		}
		if id == "" {
			host, _ := os.Hostname()
			id = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		cl := &svc.Client{Base: register}
		if err := cl.Heartbeat(hbCtx, id, advertise, ttl); err != nil {
			return fmt.Errorf("register with %s: %w", register, err)
		}
		log.Printf("registered as %s (%s) with %s", id, advertise, register)
	}

	go func() {
		<-ctx.Done()
		hbStop() // deregister before the listener dies
		time.Sleep(50 * time.Millisecond)
		srv.Close()
	}()
	log.Printf("worker listening on %s", ln.Addr())
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

// demoRequest is the built-in smoke sweep as a service submission: two
// workloads by three prefetch schemes. The budget is baked into every config
// (rather than applied by a coordinator), and -coordinate builds its plan
// with the service's own SubmitRequest.Plan, so the reference and every
// service sweep execute literally identical jobs.
func demoRequest(label string, priority int, instrs uint64, chunk int) svc.SubmitRequest {
	mk := func(kind core.PrefetcherKind) core.Config {
		c := core.DefaultConfig()
		c.MaxInstrs = instrs
		c.Prefetch.Kind = kind
		return c
	}
	return svc.SubmitRequest{
		Label:     label,
		Priority:  priority,
		Workloads: []string{"gcc", "deltablue"},
		Configs: []svc.ConfigPoint{
			{Name: "base", Config: mk(core.PrefetchNone)},
			{Name: "nextline", Config: mk(core.PrefetchNextLine)},
			{Name: "fdp", Config: mk(core.PrefetchFDP)},
		},
		ChunkPoints: chunk,
	}
}

// runSubmit submits the demo plan and streams it to completion, resuming
// from the frame cursor through transport drops and through a drain and
// restart of the service (a drain ends the stream without a terminal frame;
// frame n is plan index n in every incarnation; see resumeStream), then
// prints the sorted deterministic rows (stdout) and the job accounting
// (stderr).
func runSubmit(ctx context.Context, base, label string, priority int, instrs uint64, chunk int) error {
	cl := &svc.Client{Base: base}
	st, err := cl.Submit(ctx, demoRequest(label, priority, instrs, chunk))
	if err != nil {
		return err
	}
	log.Printf("submitted %s (%d points)", st.ID, st.Points)

	rows := make([]row, 0, st.Points)
	stream := func(from int, fn func(svc.StreamFrame) error) error { return cl.Stream(ctx, st.ID, from, fn) }
	if err := resumeStream(ctx, stream, func(f svc.StreamFrame) {
		rows = append(rows, rowOf(*f.Outcome))
	}, time.Now, sleepCtx); err != nil {
		return err
	}
	if err := printRows(rows); err != nil {
		return err
	}
	final, err := cl.Job(ctx, st.ID)
	if err != nil {
		return err
	}
	log.Printf("%s done: %d points, %d served from cache", final.ID, final.Completed, final.Cached)
	return nil
}

// The reconnect schedule of resumeStream: waits double from resumeMinWait
// to resumeMaxWait, and the stream is given up once resumeBudget passes
// with no frame delivered. A draining service ends every stream at once
// while its in-flight ranges finish, and its restart takes as long as the
// operator does, so the budget is a minute, not a retry count.
const (
	resumeMinWait = 100 * time.Millisecond
	resumeMaxWait = 2 * time.Second
	resumeBudget  = time.Minute
)

// resumeStream reads one sweep's stream to its terminal frame through
// stream(from, fn), handing each frame to deliver. After any other end of
// the stream it reconnects from the cursor past the last frame delivered,
// backing off between attempts; a reconnect that delivered a frame
// restarts both the wait and the budget. It gives up on a failed sweep,
// when ctx ends, and once resumeBudget passes without a frame. now and
// sleep are the clock (time.Now and sleepCtx outside tests).
func resumeStream(ctx context.Context, stream func(from int, fn func(svc.StreamFrame) error) error,
	deliver func(svc.StreamFrame), now func() time.Time, sleep func(context.Context, time.Duration) error) error {
	cursor := 0
	wait, deadline := resumeMinWait, now().Add(resumeBudget)
	for {
		progressed := false
		err := stream(cursor, func(f svc.StreamFrame) error {
			cursor = f.Seq + 1
			progressed = true
			deliver(f)
			return nil
		})
		if err == nil {
			return nil // terminal done frame
		}
		if errors.Is(err, svc.ErrSweepFailed) || ctx.Err() != nil {
			return err
		}
		if progressed {
			wait, deadline = resumeMinWait, now().Add(resumeBudget)
		}
		if now().Add(wait).After(deadline) {
			return fmt.Errorf("stream dropped at frame %d and no frame arrived for %v: %w", cursor, resumeBudget, err)
		}
		log.Printf("stream dropped at frame %d (%v); resuming in %v", cursor, err, wait)
		if err := sleep(ctx, wait); err != nil {
			return err
		}
		wait = min(2*wait, resumeMaxWait)
	}
}

// sleepCtx waits d, or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runWatch follows one sweep's stream frames from a cursor, printing them raw.
func runWatch(ctx context.Context, base, id string, from int) error {
	if id == "" {
		return fmt.Errorf("-watch requires -job ID")
	}
	cl := &svc.Client{Base: base}
	enc := json.NewEncoder(os.Stdout)
	return cl.Stream(ctx, id, from, func(f svc.StreamFrame) error {
		return enc.Encode(f)
	})
}

// row is one output line: only fields that are deterministic functions of
// the plan point (no wall times, no cache flags), so two runs of the same
// plan — single-process or service-streamed, resumed or cache-served — diff
// byte-identically.
type row struct {
	Index  int         `json:"index"`
	Name   string      `json:"name"`
	Result core.Result `json:"result"`
	Error  string      `json:"error,omitempty"`
}

// rowOf keeps an outcome's deterministic fields.
func rowOf(out engine.RunOutcome) row {
	r := row{Index: out.Index, Name: out.Job.Name, Result: out.Result}
	if out.Err != nil {
		r.Error = out.Err.Error()
	}
	return r
}

// printRows sorts rows by index, in place, and writes them to stdout.
func printRows(rows []row) error {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Index < rows[j].Index })
	enc := json.NewEncoder(os.Stdout)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

// runCoordinator runs the demo plan through the in-process engine (no wire,
// no workers) and prints its rows and summary: the single-process reference.
func runCoordinator(ctx context.Context, instrs uint64, workers, topk int) error {
	p, err := demoRequest("", 0, instrs, 0).Plan()
	if err != nil {
		return err
	}
	rows := make([]row, 0, p.Points())
	for out, err := range engine.New(engine.WithWorkers(workers)).Stream(ctx, p) {
		if err != nil {
			return err
		}
		rows = append(rows, rowOf(out))
	}
	if err := printRows(rows); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, summarize(rows, topk))
	return nil
}

// summarize renders the IPC summary of index-sorted rows: count, mean and
// population stddev over the successful rows (Welford's update, in index
// order), p50 and p90 from a histogram of 32 buckets over [0, 8) — each
// quantile is its bucket's upper bound, or the exact maximum when the rank
// lands in overflow — the topk highest and lowest rows with ties broken
// toward the lower index on both ends, the failure count and the bucket
// line. It reads only the rows, so it does not depend on the order the
// engine finished them in.
func summarize(rows []row, topk int) string {
	hist := stats.NewHistogramSketch(0, 8, 32)
	var ok []row
	for _, r := range rows {
		if r.Error == "" {
			ok = append(ok, r)
			hist.Add(r.Result.IPC)
		}
	}
	mean, stddev := moments(ok)
	out := fmt.Sprintf("IPC: n=%d mean=%.4f stddev=%.4f p50=%.4f p90=%.4f failures=%d",
		len(ok), mean, stddev, hist.Quantile(0.5), hist.Quantile(0.9), len(rows)-len(ok))
	// Stable sorts of index-ordered rows keep ties in index order.
	top, bottom := slices.Clone(ok), slices.Clone(ok)
	sort.SliceStable(top, func(i, j int) bool { return top[i].Result.IPC > top[j].Result.IPC })
	sort.SliceStable(bottom, func(i, j int) bool { return bottom[i].Result.IPC < bottom[j].Result.IPC })
	k := max(0, min(topk, len(ok)))
	for _, r := range top[:k] {
		out += fmt.Sprintf("\n  top    %-40s %.4f", r.Name, r.Result.IPC)
	}
	for _, r := range bottom[:k] {
		out += fmt.Sprintf("\n  bottom %-40s %.4f", r.Name, r.Result.IPC)
	}
	return out + "\n  " + hist.String()
}

// moments returns the rows' IPC mean and population stddev by Welford's
// update, in row order. The m2 product is rounded on its own (float64(...)),
// so no architecture fuses it into a multiply-add.
func moments(rows []row) (mean, stddev float64) {
	var m2 float64
	for i, r := range rows {
		d := r.Result.IPC - mean
		mean += d / float64(i+1)
		m2 += float64(d * (r.Result.IPC - mean))
	}
	if len(rows) > 1 {
		stddev = math.Sqrt(m2 / float64(len(rows)))
	}
	return mean, stddev
}
