// Package svc is the fdipd sweep service: a long-running coordinator process
// that accepts Plan submissions from many clients, runs them one sweep at a
// time across a self-registering worker pool (internal/dist.Registry), and
// streams results back over per-client NDJSON endpoints.
//
// The service is built from four guarantees the lower layers already prove:
//
//   - Persistence: submissions land in a queue journal (StateDir/queue.journal)
//     before they are acknowledged, and every sweep runs under its own dist
//     checkpoint journal — a service restart re-queues unfinished sweeps and
//     resumes them from their last committed range. Only records whose loss
//     would lose work or an acknowledgement are fsynced; the rest are
//     re-derived on restart (see ARCHITECTURE.md, "Durability").
//   - Shared results: one engine.ResultCache, keyed on the engine's memo
//     identity (engine.JobKey), spans all sweeps, so a submission overlapping any earlier one — including ones
//     completed before a restart, re-warmed from their journals — ships only
//     its genuinely new points to workers.
//   - Bit-identity: streamed outcomes are exactly the single-process
//     engine.Stream outcomes, whatever mix of worker kills, cache hits,
//     journal replays, and client reconnects produced them.
//   - Graceful drain: quiescing the service stops dispatch, lets in-flight
//     ranges journal, and re-queues interrupted sweeps rather than failing
//     them — a SIGINT'd fdipd -serve restarts where it left off.
package svc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fdip/internal/core"
	"fdip/internal/dist"
	"fdip/internal/durable"
	"fdip/internal/engine"
)

// Options configures a Server.
type Options struct {
	// StateDir holds the queue journal and per-sweep checkpoint journals
	// (required; created if absent).
	StateDir string
	// Shards is the per-sweep worker-session fan-out (default 4).
	Shards int
	// ChunkPoints is the default journaled range size for submissions that
	// don't set their own (default 8).
	ChunkPoints int
	// MaxQueued bounds queued+running sweeps; further submissions fail with
	// ErrQueueFull (HTTP 429) until the backlog drains (default 16).
	MaxQueued int
	// WorkerTTL is the registry heartbeat budget (default 15s).
	WorkerTTL time.Duration
}

// ErrQueueFull rejects submissions when the backlog is at MaxQueued.
var ErrQueueFull = errors.New("svc: queue full")

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// SubmitRequest describes one sweep: a cross product of workloads and named
// configurations — the wire form of engine.NewPlan(...).OverNames(...).Axes
// (Plans themselves are closures and cannot cross a process boundary).
type SubmitRequest struct {
	// Label names the sweep in listings (defaulted to its id).
	Label string `json:"label,omitempty"`
	// Priority orders the queue: higher runs first, FIFO within a level.
	Priority int `json:"priority,omitempty"`
	// Workloads are the plan's rows (named workloads).
	Workloads []string `json:"workloads"`
	// Configs are the plan's columns.
	Configs []ConfigPoint `json:"configs"`
	// Instrs is the committed-instruction budget applied to every point
	// (0 = each config's own limits).
	Instrs uint64 `json:"instrs,omitempty"`
	// ChunkPoints overrides the service's journaled range size (0 = server
	// default). It participates in the sweep's journal fingerprint.
	ChunkPoints int `json:"chunk_points,omitempty"`
}

// ConfigPoint is one named machine configuration.
type ConfigPoint struct {
	Name   string      `json:"name"`
	Config core.Config `json:"config"`
}

// Plan rebuilds the engine Plan a request describes: the one plan rule the
// service and fdipd's single-process reference share.
func (r SubmitRequest) Plan() (*engine.Plan, error) {
	if len(r.Workloads) == 0 || len(r.Configs) == 0 {
		return nil, fmt.Errorf("svc: a submission needs at least one workload and one config")
	}
	pts := make([]engine.NamedConfig, len(r.Configs))
	for i, c := range r.Configs {
		pts[i] = engine.Named(c.Name, c.Config)
	}
	p := engine.NewPlan(core.DefaultConfig()).
		OverNames(r.Workloads...).
		Axes(engine.Configs(pts...))
	return p, p.Err()
}

// JobStatus is a sweep's externally visible state.
type JobStatus struct {
	ID       string `json:"id"`
	Label    string `json:"label"`
	State    string `json:"state"`
	Priority int    `json:"priority"`
	// Points is the plan size; Completed counts streamed outcomes so far;
	// Cached counts how many of those were served from the shared result
	// cache rather than executed by a worker — the accounting that proves
	// overlap reuse.
	Points    int    `json:"points"`
	Completed int    `json:"completed"`
	Cached    int    `json:"cached"`
	Error     string `json:"error,omitempty"`
}

// sweep is one submission's full server-side state.
type sweep struct {
	id   string
	seq  int // submission order, the FIFO key within a priority level
	req  SubmitRequest
	plan *engine.Plan

	state  string
	errMsg string
	buf    []engine.RunOutcome // plan-order outcomes (buf[i].Index == i), the stream source
	cached int
}

func (sw *sweep) status() JobStatus {
	label := sw.req.Label
	if label == "" {
		label = sw.id
	}
	return JobStatus{
		ID:        sw.id,
		Label:     label,
		State:     sw.state,
		Priority:  sw.req.Priority,
		Points:    sw.plan.Points(),
		Completed: len(sw.buf),
		Cached:    sw.cached,
		Error:     sw.errMsg,
	}
}

// Server is the sweep service: queue + scheduler + registry + shared cache.
// Create with New, mount Handler on an HTTP server, Shutdown to drain.
type Server struct {
	opts  Options
	reg   *dist.Registry
	cache *engine.ResultCache
	queue *durable.Log[queueRecord]

	mu    sync.Mutex
	cond  *sync.Cond // guards/announces every sweep-state and buffer change
	jobs  map[string]*sweep
	order []*sweep // submission order
	seq   int      // last assigned submission ordinal

	quiesce   chan struct{}
	quiesceFn sync.Once
	closeErr  error // the queue journal's close, Shutdown's result
	schedDone chan struct{}
}

// New opens (or creates) the service state under opts.StateDir, restores the
// queue — re-warming the shared cache and stream buffers of finished sweeps
// from their journals, re-queuing unfinished ones — and starts the scheduler.
func New(opts Options) (*Server, error) {
	if opts.StateDir == "" {
		return nil, fmt.Errorf("svc: Options.StateDir is required")
	}
	if opts.Shards <= 0 {
		opts.Shards = 4
	}
	if opts.ChunkPoints <= 0 {
		opts.ChunkPoints = 8
	}
	if opts.MaxQueued <= 0 {
		opts.MaxQueued = 16
	}
	if err := os.MkdirAll(opts.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("svc: state dir: %w", err)
	}
	s := &Server{
		opts:      opts,
		reg:       dist.NewRegistry(opts.WorkerTTL),
		cache:     new(engine.ResultCache),
		jobs:      make(map[string]*sweep),
		quiesce:   make(chan struct{}),
		schedDone: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	q, records, err := durable.Open[queueRecord](filepath.Join(opts.StateDir, "queue.journal"), nil)
	if err != nil {
		return nil, fmt.Errorf("svc: queue journal: %w", err)
	}
	s.queue = q
	s.restore(records)
	go s.scheduler()
	return s, nil
}

// restore replays the queue journal into server state, then replays the
// dist journals of every sweep that did not fail, which re-warms the shared
// cache. Finished sweeps go first, in completion order (the order of their
// done records), so each one's cache sources are primed before it replays: a
// cache-served range whose unsynced record a power loss dropped is served
// from the cache again, never dialed. A finished sweep that replays whole
// gets its stream buffer back; one that cannot goes back to queued and
// resumes behind its journal. Unfinished sweeps — queued or mid-run at the
// crash — replay last, only to prime the cache (the scheduler may reach a
// sweep that read from one of them first), and stay queued.
func (s *Server) restore(records []queueRecord) {
	var finished []*sweep
	for _, rec := range records {
		switch rec.Op {
		case "submit":
			// Only an id Submit could have written names a sweep (any other
			// could collide with one Submit issues later), and an id
			// journaled twice keeps its first submission.
			n, ok := idSeq(rec.ID)
			if _, dup := s.jobs[rec.ID]; !ok || dup {
				continue
			}
			// Every journaled id counts, plannable or not, so Submit never
			// reissues one.
			s.seq = max(s.seq, n)
			if rec.Req == nil {
				continue
			}
			p, err := rec.Req.Plan()
			if err != nil {
				continue // a poisoned historic submission must not brick restart
			}
			sw := &sweep{id: rec.ID, seq: s.seq, req: *rec.Req, plan: p, state: StateQueued}
			s.jobs[rec.ID] = sw
			s.order = append(s.order, sw)
		case "done":
			// A sweep re-queued by an earlier restart is done twice; its
			// first completion is the one later sweeps read from.
			if sw, ok := s.jobs[rec.ID]; ok && sw.state != StateDone {
				sw.state = StateDone
				finished = append(finished, sw)
			}
		case "failed":
			if sw, ok := s.jobs[rec.ID]; ok {
				sw.state = StateFailed
				sw.errMsg = rec.Error
			}
		}
	}
	replay := finished
	for _, sw := range s.order {
		if sw.state == StateQueued {
			replay = append(replay, sw)
		}
	}
	for _, sw := range replay {
		if sw.state == StateFailed {
			continue
		}
		buf, cached, err := s.replay(sw)
		switch {
		case sw.state != StateDone:
		case err != nil:
			sw.state = StateQueued
		default:
			sw.buf, sw.cached = buf, cached
		}
	}
}

// replay rebuilds one sweep's stream through its own coordinator with no
// dialer, which serves only what the journal and the shared cache hold and
// primes the cache from the journal. It reports the outcomes, how many were
// cache-served, and an error if the journal is gone or a range needs a worker.
func (s *Server) replay(sw *sweep) ([]engine.RunOutcome, int, error) {
	if _, err := os.Stat(s.journalPath(sw.id)); err != nil {
		return nil, 0, err
	}
	var buf []engine.RunOutcome
	cached := 0
	for out, err := range s.coordinator(sw, nil).Stream(context.Background(), sw.plan) {
		if err != nil {
			return nil, 0, err
		}
		buf = append(buf, out)
		if out.Cached {
			cached++
		}
	}
	return buf, cached, nil
}

func (s *Server) journalPath(id string) string {
	return filepath.Join(s.opts.StateDir, id+".journal")
}

// coordinator is sw's dist coordinator over dialer: the registry to run the
// sweep, nil to replay it from its journal and the shared cache.
func (s *Server) coordinator(sw *sweep, dialer dist.Dialer) *dist.Coordinator {
	chunk := sw.req.ChunkPoints
	if chunk <= 0 {
		chunk = s.opts.ChunkPoints
	}
	return dist.New(dist.Options{
		Dialer:      dialer,
		Shards:      s.opts.Shards,
		ChunkPoints: chunk,
		Instrs:      sw.req.Instrs,
		Journal:     s.journalPath(sw.id),
		Cache:       s.cache,
		Quiesce:     s.quiesce,
	})
}

// Submit validates, journals, and enqueues one sweep. The returned status is
// the accepted job (state queued); ErrQueueFull reports backpressure.
func (s *Server) Submit(req SubmitRequest) (JobStatus, error) {
	p, err := req.Plan()
	if err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	backlog := 0
	for _, sw := range s.order {
		if sw.state == StateQueued || sw.state == StateRunning {
			backlog++
		}
	}
	if backlog >= s.opts.MaxQueued {
		return JobStatus{}, fmt.Errorf("%w: %d sweeps pending", ErrQueueFull, backlog)
	}
	if s.seq >= math.MaxInt-1 {
		return JobStatus{}, fmt.Errorf("svc: submission ids exhausted at %s", sweepID(s.seq))
	}
	s.seq++
	sw := &sweep{id: sweepID(s.seq), seq: s.seq, req: req, plan: p, state: StateQueued}
	// Durability precedes acknowledgement: the submission is journaled (and
	// fsynced) before the client learns its id. A failed append still
	// consumes the id — its bytes may have reached the file before the fsync
	// failed — so the next submission cannot journal a second record under it.
	if err := s.queue.Append(queueRecord{Op: "submit", ID: sw.id, Req: &req}, true); err != nil {
		return JobStatus{}, err
	}
	s.jobs[sw.id] = sw
	s.order = append(s.order, sw)
	s.cond.Broadcast()
	return sw.status(), nil
}

// Job returns one sweep's status.
func (s *Server) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return sw.status(), true
}

// Jobs lists every known sweep in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, len(s.order))
	for i, sw := range s.order {
		out[i] = sw.status()
	}
	return out
}

// scheduler is the single sweep-execution loop: it drains the queue in
// (priority desc, submission asc) order, one sweep at a time — each sweep is
// itself sharded across the whole worker pool, so serial sweeps lose no
// parallelism and keep the completion stream per-sweep contiguous.
func (s *Server) scheduler() {
	defer close(s.schedDone)
	for {
		sw := s.nextRunnable()
		if sw == nil {
			return // quiesced
		}
		s.runSweep(sw)
		if dist.Quiesced(s.quiesce) {
			return
		}
	}
}

// nextRunnable blocks until a queued sweep exists (returning the best one,
// marked running) or the service quiesces (returning nil).
func (s *Server) nextRunnable() *sweep {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if dist.Quiesced(s.quiesce) {
			return nil
		}
		var best *sweep
		for _, sw := range s.order {
			if sw.state != StateQueued {
				continue
			}
			if best == nil || sw.req.Priority > best.req.Priority ||
				(sw.req.Priority == best.req.Priority && sw.seq < best.seq) {
				best = sw
			}
		}
		if best != nil {
			best.state = StateRunning
			s.cond.Broadcast()
			return best
		}
		s.cond.Wait()
	}
}

// runSweep executes one sweep under its checkpoint journal, streaming
// outcomes into its buffer (waking stream watchers per range) and recording
// the terminal state in the queue journal. A quiesce mid-sweep re-queues the
// sweep instead of failing it: the drained ranges are journaled, so the next
// run — after restart — resumes behind them.
func (s *Server) runSweep(sw *sweep) {
	var terminal error
	for out, err := range s.coordinator(sw, s.reg).Stream(context.Background(), sw.plan) {
		if err != nil {
			terminal = err
			break
		}
		s.mu.Lock()
		sw.buf = append(sw.buf, out)
		if out.Cached {
			sw.cached++
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	}

	// The terminal state is published before it is journaled, so no stream
	// waits on the queue journal: a done record is not even synced, and a
	// failed record's fsync runs outside s.mu.
	var rec *queueRecord
	s.mu.Lock()
	switch {
	case terminal == nil:
		sw.state = StateDone
		rec = &queueRecord{Op: "done", ID: sw.id}
	case errors.Is(terminal, dist.ErrQuiesced) || dist.Quiesced(s.quiesce):
		// Graceful drain (or a dial aborted by shutdown): back to queued,
		// progress parked in the journal. No queue record — the journal's
		// last word on this sweep is still its submission.
		sw.state = StateQueued
		sw.buf = nil
		sw.cached = 0
	default:
		sw.state = StateFailed
		sw.errMsg = terminal.Error()
		rec = &queueRecord{Op: "failed", ID: sw.id, Error: sw.errMsg}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	if rec != nil {
		// A failed append must not change the outcome: a lost done record
		// re-queues the sweep on restart, and it resumes behind its complete
		// dist journal without executing anything. Only a failed record is
		// synced (see queueRecord).
		_ = s.queue.Append(*rec, rec.Op == "failed")
	}
}

// Shutdown gracefully drains the service: dispatch stops, in-flight ranges
// finish and journal, the interrupted sweep (if any) re-queues, the scheduler
// exits, and the queue journal closes, flushing its unsynced done records.
// Safe to call more than once: a later call waits for the first and returns
// its result.
func (s *Server) Shutdown() error {
	s.quiesceFn.Do(func() {
		close(s.quiesce)
		s.mu.Lock()
		s.cond.Broadcast() // release nextRunnable and stream watchers
		s.mu.Unlock()
		s.reg.Close() // release coordinator dials blocked on an empty pool
		<-s.schedDone
		s.closeErr = s.queue.Close(true)
	})
	return s.closeErr
}

// Stream copies one sweep's outcomes to fn in plan order, starting at frame
// index from (the reconnect cursor: a client that saw n frames resumes with
// from=n and misses nothing). Frame n carries the outcome of plan index n in
// every incarnation of the service, so a cursor transfers across restarts. It
// blocks over live sweeps — following the buffer as ranges land — and returns
// once the sweep's terminal state has been delivered, ctx ends, or fn errs.
// A drain ends it with dist.ErrQuiesced and no terminal frame: the sweep is
// not over, and resumes after the restart.
func (s *Server) Stream(ctx context.Context, id string, from int, fn func(StreamFrame) error) error {
	s.mu.Lock()
	sw, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("svc: unknown job %q", id)
	}
	if from < 0 {
		from = 0
	}
	// A context death must wake the cond wait below, not strand it.
	wake := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer wake()

	next := from
	for {
		s.mu.Lock()
		for ctx.Err() == nil && next >= len(sw.buf) && sw.state != StateDone && sw.state != StateFailed && !dist.Quiesced(s.quiesce) {
			s.cond.Wait()
		}
		var batch []engine.RunOutcome
		if next < len(sw.buf) {
			batch = sw.buf[next:len(sw.buf):len(sw.buf)]
		}
		state, errMsg := sw.state, sw.errMsg
		s.mu.Unlock()

		if err := ctx.Err(); err != nil {
			return err
		}
		for _, out := range batch {
			f := StreamFrame{Type: "outcome", Seq: next, Outcome: &out}
			if err := fn(f); err != nil {
				return err
			}
			next++
		}
		switch state {
		case StateDone:
			return fn(StreamFrame{Type: "done", Seq: next})
		case StateFailed:
			return fn(StreamFrame{Type: "error", Seq: next, Error: errMsg})
		}
		if dist.Quiesced(s.quiesce) {
			return dist.ErrQuiesced
		}
	}
}

// StreamFrame is one NDJSON stream record. Seq is the frame's index in the
// sweep's stream, which is plan order, so an outcome frame's Seq equals its
// outcome's Index — the cursor a reconnecting client passes back as from, in
// this incarnation of the service or the next. The terminal done/error frame
// carries Seq = total outcome count.
type StreamFrame struct {
	Type    string             `json:"type"` // "outcome" | "done" | "error"
	Seq     int                `json:"seq"`
	Outcome *engine.RunOutcome `json:"outcome,omitempty"`
	Error   string             `json:"error,omitempty"`
}

// streamWire is StreamFrame's wire form: the same fields in the same order
// under the same tags, with the outcome as an engine.WireOutcome, so the
// stream handler and Client.Stream make one encoding/json pass per frame.
type streamWire struct {
	Type    string              `json:"type"`
	Seq     int                 `json:"seq"`
	Outcome *engine.WireOutcome `json:"outcome,omitempty"`
	Error   string              `json:"error,omitempty"`
}

func (f StreamFrame) wire() streamWire {
	w := streamWire{Type: f.Type, Seq: f.Seq, Error: f.Error}
	if f.Outcome != nil {
		out := f.Outcome.Wire()
		w.Outcome = &out
	}
	return w
}
