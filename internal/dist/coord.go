package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"iter"
	"sort"
	"sync"

	"fdip/internal/engine"
)

// Options configures a Coordinator.
type Options struct {
	// Dialer supplies worker sessions. Without one the coordinator serves
	// only what the journal and the cache hold: the first range that
	// needs a worker ends the stream with a terminal error naming it.
	Dialer Dialer
	// Shards is the number of concurrent worker sessions (default 1), and
	// the most pieces one range's cache misses are cut into.
	Shards int
	// ChunkPoints is the checkpoint granularity — how many consecutive
	// enumeration points each journaled range carries (default 32). A range
	// is journaled and yielded whole, in enumeration order, but dispatched
	// as up to Shards pieces, so several shards can work on one range — as
	// many as keep every piece at least as large as one worker's slots
	// (Slotted); a dialer that does not report slots gets whole ranges.
	// Smaller chunks checkpoint finer and deliver first outcomes sooner, and
	// a slow range holds back less of the stream behind it; larger ones
	// amortise journal records and worker requests.
	ChunkPoints int
	// Instrs, when non-zero, is the committed-instruction budget workers
	// apply to every job — the distributed analogue of
	// engine.WithInstrBudget. It participates in the journal fingerprint.
	Instrs uint64
	// Journal is the checkpoint file path; "" disables checkpointing.
	Journal string
	// Cache, when non-nil, is a cross-sweep result cache (shared across
	// sweeps and, behind a service, across clients). Before a range is
	// dispatched, each of its jobs is looked up; hits are served without
	// worker execution (tagged with this sweep's index and name,
	// Cached=true) and only the misses travel, as sparse pieces. Fresh
	// successful results — and journal-replayed ones — are written back, so
	// sweeps sharing the cache share completed points.
	Cache *engine.ResultCache
	// Quiesce, when non-nil, is the graceful-drain signal: once it is
	// closed, the coordinator stops dispatching new ranges, lets in-flight
	// ranges complete (a range whose first piece has left is dispatched
	// whole, then journaled and yielded as usual), and then ends the
	// stream with a terminal error wrapping ErrQuiesced. Paired with a
	// journal this is a clean checkpointed shutdown: re-running the sweep
	// resumes exactly after the drained ranges.
	Quiesce <-chan struct{}
}

// ErrQuiesced is wrapped by the terminal stream error after a graceful drain
// (Options.Quiesce): every range dispatched before the drain was delivered
// and journaled; the wrapped error just reports the sweep is unfinished.
var ErrQuiesced = errors.New("dist: coordinator quiesced")

// Coordinator shards plans across worker sessions and merges the shard
// streams back into the engine.Stream contract. Its Stream method satisfies
// the same signature as (*engine.Engine).Stream, so anything built on the
// streaming contract — stats collectors, the experiments runner — runs
// distributed by swapping the streamer.
type Coordinator struct {
	opts Options
}

// New builds a coordinator. Zero-valued options take their defaults.
func New(opts Options) *Coordinator {
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	if opts.ChunkPoints <= 0 {
		opts.ChunkPoints = 32
	}
	return &Coordinator{opts: opts}
}

// fingerprint binds a journal to one sweep identity: the plan's shape (point
// count, row/col labels), the chunking and budget that determine range
// boundaries and results, and every point's resolved job, streamed into the
// hash one at a time. Journal records carry no jobs, so this is what makes a
// replayed result the result of the plan's own point: two sweeps with the
// same fingerprint produce interchangeable journals, and anything else is
// rejected at open.
func (c *Coordinator) fingerprint(p *engine.Plan) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "points=%d chunk=%d instrs=%d", p.Points(), c.opts.ChunkPoints, c.opts.Instrs)
	for _, r := range p.Rows() {
		fmt.Fprintf(h, "|r:%s", r)
	}
	for _, col := range p.Cols() {
		fmt.Fprintf(h, "|c:%s", col)
	}
	enc := json.NewEncoder(h)
	for _, job := range p.Jobs() {
		rj, _, _ := engine.ResolveJob(job, c.opts.Instrs)
		// A hash never fails a write, and a job fails to encode only with a
		// NaN or infinite Params float; such a job is left out of the hash.
		_ = enc.Encode(rj)
	}
	return h.Sum64()
}

// pendingRange is one journal range between dispatch and delivery. The
// dispatcher fills its jobs, cache hits, keys and piece count before handing
// it to the consumer loop; from then on jobs, keys and keyed are read-only,
// and each shard loop writes its piece's outcomes into their slots — stamped
// with their slots' jobs — before it lands the piece. The last piece to land,
// or the first to fail, closes done; the consumer loop reads outs and err
// only after done is closed. A range that no piece will land (journaled,
// fully cache-served, or failed before any piece left) shares the closed
// channel.
type pendingRange struct {
	start     int
	jobs      []engine.Job        // slot i's resolved job, the only job its outcome carries
	outs      []engine.RunOutcome // slot i holds enumeration index start+i
	keys      []engine.JobKey     // per-slot cache key (nil without a cache)
	keyed     []bool              // keys[i] is valid (the job resolved)
	shipped   int                 // jobs shipped to workers (Cached cannot tell: worker memo hits set it too)
	journaled bool                // replayed from the journal, so never journaled again
	done      chan struct{}

	mu   sync.Mutex
	left int   // pieces not yet landed
	err  error // terminal: why the stream ends at this range
}

// closed is the done channel of every range that reaches the consumer loop
// already done.
var closed = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// failed is a range at which the stream ends with err.
func failed(start int, err error) *pendingRange {
	return &pendingRange{start: start, err: err, done: closed}
}

// land records one piece's fate: err nil once its outcomes are in their
// slots. Only the first failure counts; a piece that lands after it is moot.
func (r *pendingRange) land(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.err != nil:
	case err != nil:
		r.err = err
		close(r.done)
	default:
		if r.left--; r.left == 0 {
			close(r.done)
		}
	}
}

// piece is the dispatch unit: a sparse assignment of some of one range's
// cache misses (Start is the range's start, its identity).
type piece struct {
	rng *pendingRange
	a   Assignment
}

// Stream executes every point of the plan across the coordinator's shards
// and yields outcomes in enumeration order, range by range: a range is
// yielded once it and every range before it have completed, however they
// were served — replayed from the journal, served from the cache, or run by
// workers. So the stream is a function of the plan alone, and a consumer that
// saw n outcomes of one run has seen exactly indices 0..n-1 of any other run
// of the same plan, a resumed one included. Per-job failures ride inside
// outcomes; a stream-level failure (context death, a piece out of retries, a
// range that needs a worker when there is no dialer, a journal write error)
// yields once as a terminal (zero, error) pair, after every range before the
// one that failed. Breaking out of the loop cancels outstanding pieces before
// the iterator returns.
//
// With a journal configured, ranges completed by a previous run replay from
// disk in their place in the order (no re-execution) and the remainder
// executes; a consumer that needs the full stream — a stats.Collector — sees
// every outcome exactly once either way.
func (c *Coordinator) Stream(ctx context.Context, p *engine.Plan) iter.Seq2[engine.RunOutcome, error] {
	return func(yield func(engine.RunOutcome, error) bool) {
		if err := p.Err(); err != nil {
			yield(engine.RunOutcome{}, err)
			return
		}
		var jr *Journal
		completed := map[int][]engine.RunOutcome{}
		if c.opts.Journal != "" {
			var err error
			jr, completed, err = OpenJournal(c.opts.Journal, c.fingerprint(p), p.Points(), c.opts.ChunkPoints)
			if err != nil {
				yield(engine.RunOutcome{}, err)
				return
			}
			defer jr.Close()
		}

		// Journal records carry no jobs: the fingerprint proved the journal
		// is this plan's, so each replayed outcome is stamped with the
		// plan's resolved job at its index. Before anything is dispatched,
		// the journal also primes the shared result cache: ranges completed
		// by a previous run are proven results for their simulation
		// identities, and a service restart re-warms its cache from them.
		if len(completed) > 0 {
			chunk := c.opts.ChunkPoints
			for i, job := range p.Jobs() {
				outs, ok := completed[i-i%chunk]
				if !ok {
					continue
				}
				out := &outs[i%chunk]
				rj, key, err := engine.ResolveJob(job, c.opts.Instrs)
				out.Job = rj
				if c.opts.Cache != nil && err == nil && out.Err == nil {
					c.opts.Cache.Put(key, out.Result)
				}
			}
		}

		parent := ctx
		ctx, cancel := context.WithCancel(ctx)
		// Cancelling outstanding work and reaping every goroutine before the
		// iterator returns is the same no-leak guarantee engine.Stream gives
		// on early break.
		var wg sync.WaitGroup
		defer wg.Wait()
		defer cancel()

		// The dispatcher hands every range to the consumer loop in
		// enumeration order, ending with a failed one if it stops early.
		work := make(chan piece)
		ranges := make(chan *pendingRange)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(work)
			defer close(ranges)
			c.dispatch(ctx, p, completed, work, ranges)
		}()
		for i := 0; i < c.opts.Shards; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.shardLoop(ctx, work)
			}()
		}

		// The consumer keeps the ranges it has been handed, oldest first, so
		// dispatch never waits on a slow range at the head.
		var fifo []*pendingRange
		for handed := ranges; len(fifo) > 0 || handed != nil; {
			var head <-chan struct{}
			if len(fifo) > 0 {
				head = fifo[0].done
			}
			select {
			case r, ok := <-handed:
				if ok {
					fifo = append(fifo, r)
				} else {
					handed = nil
				}
				continue
			case <-head:
			case <-ctx.Done():
				// Only the parent cancels ctx while the loop runs; the shards
				// abandon their pieces without landing them.
				yield(engine.RunOutcome{}, parent.Err())
				return
			}
			r := fifo[0]
			fifo[0] = nil
			fifo = fifo[1:]
			if r.err != nil {
				yield(engine.RunOutcome{}, r.err)
				return
			}
			// An executed range is journaled durably before it is yielded:
			// once the consumer has seen it, it must never replay
			// differently. A range no worker ran replays identically from
			// the cache, so it is journaled after delivery, unsynced.
			if jr != nil && r.shipped > 0 {
				if err := jr.Commit(r.start, r.outs); err != nil {
					yield(engine.RunOutcome{}, err)
					return
				}
			}
			for _, out := range r.outs {
				if !yield(out, nil) {
					return
				}
			}
			if jr != nil && r.shipped == 0 && !r.journaled {
				if err := jr.note(r.start, r.outs); err != nil {
					yield(engine.RunOutcome{}, err)
					return
				}
			}
		}
		if err := parent.Err(); err != nil {
			yield(engine.RunOutcome{}, err)
		}
	}
}

// dispatch walks the plan's enumeration exactly once (O(points) total,
// O(chunk) live) and hands every range to the consumer loop in enumeration
// order, each as soon as it is split. A journaled range is handed over done.
// Every other range is split on the cache: a fully cached range is done and
// never dials, and the misses of the rest leave as pieces the shard loops
// take first-in first-out, so a shard that finishes early can take a piece of
// a range another shard is still running instead of idling. Dispatch stops
// at the first range it cannot start — one with misses and no dialer, or any
// range once Quiesce is closed — which it hands over failed, so the stream
// ends there, after every range before it. Quiesce is honoured only before a
// range's first piece: a started range is dispatched whole, so it still
// completes, journals and yields.
func (c *Coordinator) dispatch(ctx context.Context, p *engine.Plan, completed map[int][]engine.RunOutcome, work chan<- piece, ranges chan<- *pendingRange) {
	next, stop := iter.Pull2(p.Jobs())
	defer stop()
	points, chunk := p.Points(), c.opts.ChunkPoints
	drained := func(start int) error {
		return fmt.Errorf("%w: %d ranges not dispatched", ErrQuiesced, (points-start+chunk-1)/chunk)
	}
	for start := 0; start < points; start += chunk {
		count := min(chunk, points-start)
		outs, journaled := completed[start]
		var jobs []engine.Job
		if !journaled {
			jobs = make([]engine.Job, 0, count)
		}
		n := 0
		for ; n < count; n++ {
			_, job, ok := next()
			if !ok {
				break
			}
			if !journaled {
				jobs = append(jobs, job)
			}
		}
		var r *pendingRange
		var pieces []piece
		switch {
		case n < count:
			r = failed(start, fmt.Errorf("dist: plan enumerated %d of its %d points", start+n, points))
		case journaled:
			r = &pendingRange{start: start, outs: outs, journaled: true, done: closed}
		case Quiesced(c.opts.Quiesce):
			// Checked here too, as the select below picks at random when a
			// shard is ready as well: a closed quiesce must win.
			r = failed(start, drained(start))
		default:
			r, pieces = c.split(start, jobs)
			if len(pieces) > 0 && c.opts.Dialer == nil {
				r, pieces = failed(start, fmt.Errorf("dist: range %d needs a worker and the coordinator has no dialer", start)), nil
			}
		}
		select {
		case ranges <- r:
		case <-ctx.Done():
			return
		}
		if r.err != nil {
			return
		}
		quiesce := c.opts.Quiesce
		for _, pc := range pieces {
			select {
			case work <- pc:
			case <-ctx.Done():
				return
			case <-quiesce:
				// Graceful drain before the range started: it ends the
				// stream, and closing work lets the shard loops finish what
				// they hold and exit.
				r.land(drained(start))
				return
			}
			quiesce = nil // the range has started: dispatch it whole
		}
	}
}

// split builds one range's pending state and pieces. Every job is resolved
// and kept as its slot's job (jobs[i] becomes slot i's resolved job). With a
// cache, hits fill their slots directly (tagged with this sweep's index and
// display name); the misses — every job, without a cache — travel as the
// plan wrote them, cut into pieceCount sparse pieces of near-equal size in
// enumeration order. A fully cached range gets no pieces, which is what lets
// an overlapping sweep complete with zero live workers.
func (c *Coordinator) split(start int, jobs []engine.Job) (*pendingRange, []piece) {
	r := &pendingRange{start: start, jobs: jobs, outs: make([]engine.RunOutcome, len(jobs)), done: closed}
	if c.opts.Cache != nil {
		r.keys = make([]engine.JobKey, len(jobs))
		r.keyed = make([]bool, len(jobs))
	}
	var missJobs []engine.Job
	var missIdx []int
	for i, job := range jobs {
		rj, key, err := engine.ResolveJob(job, c.opts.Instrs)
		jobs[i] = rj
		if c.opts.Cache != nil && err == nil {
			r.keys[i], r.keyed[i] = key, true
			if res, ok := c.opts.Cache.Get(key); ok {
				r.outs[i] = engine.RunOutcome{Job: rj, Index: start + i, Result: res, Cached: true}
				continue
			}
		}
		// Unresolvable jobs travel too, so their failure outcomes are
		// produced by the same worker path a cacheless run takes.
		missJobs = append(missJobs, job)
		missIdx = append(missIdx, start+i)
	}
	n := pieceCount(len(missJobs), c.opts.Shards, dialerSlots(c.opts.Dialer))
	r.shipped, r.left = len(missJobs), n
	if n > 0 {
		r.done = make(chan struct{})
	}
	pieces := make([]piece, n)
	for k := range pieces {
		lo, hi := k*len(missJobs)/n, (k+1)*len(missJobs)/n
		pieces[k] = piece{rng: r, a: Assignment{Start: start, Jobs: missJobs[lo:hi], Indices: missIdx[lo:hi], Instrs: c.opts.Instrs}}
	}
	return r, pieces
}

// pieceCount is how many pieces a range's misses are cut into: at most one
// per shard, and never so many that a piece holds fewer jobs than one worker
// runs at once (slots). A shard runs one piece at a time, so a piece smaller
// than its worker would idle that worker's spare slots. A dialer that cannot
// say how many simulations its workers run at once (slots 0) gets whole
// ranges.
func pieceCount(misses, shards, slots int) int {
	switch {
	case misses == 0:
		return 0
	case slots <= 0:
		return 1
	}
	return max(1, min(shards, misses/slots))
}

// shardLoop is one shard slot: it keeps (at most) one live session, pulls
// pieces, caches each piece's fresh results, and writes its buffered
// outcomes into their range's slots before landing the piece. Session
// failures are retried on fresh dials inside execPiece; a piece that exhausts
// its retries fails its range, and the shard exits.
func (c *Coordinator) shardLoop(ctx context.Context, work <-chan piece) {
	var sess Session
	defer func() {
		if sess != nil {
			sess.Close()
		}
	}()
	for {
		var pc piece
		var ok bool
		select {
		case pc, ok = <-work:
			if !ok {
				return
			}
		case <-ctx.Done():
			return
		}
		outs, err := c.execPiece(ctx, &sess, pc.a)
		if err != nil && ctx.Err() != nil {
			return // the stream is unwinding; its own terminal error wins
		}
		r := pc.rng
		for _, out := range outs {
			slot := out.Index - r.start
			// Cached here rather than at delivery, so a piece that lands
			// while the stream unwinds still serves later sweeps.
			if r.keys != nil && r.keyed[slot] && out.Err == nil {
				c.opts.Cache.Put(r.keys[slot], out.Result)
			}
			// A worker's outcome is trusted for its result only: the job is
			// the plan's.
			out.Job = r.jobs[slot]
			r.outs[slot] = out
		}
		r.land(err)
		if err != nil {
			return
		}
	}
}

// Quiesced reports whether a quiesce channel has fired; a nil one never does.
func Quiesced(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// maxRetries is how many times a piece is re-dialed and re-run after its
// session fails: a service's worker pool churns, so a piece outlives a few
// dead workers before its sweep fails.
const maxRetries = 4

// execPiece executes one piece on a worker, re-dialing and re-running it on
// a fresh session after failures (a dead worker's piece is reassigned whole,
// and only that piece: its range's other pieces are untouched — a piece
// only ever lands complete, so a retry can never double-deliver a
// partially-streamed attempt's outcomes). *sess is the shard's cached
// session: nil-on-entry means dial, and a failed session is closed and
// nilled so the next attempt (or piece) starts clean.
func (c *Coordinator) execPiece(ctx context.Context, sess *Session, a Assignment) ([]engine.RunOutcome, error) {
	var lastErr error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if *sess == nil {
			s, err := c.opts.Dialer.Dial(ctx)
			if err != nil {
				lastErr = err
				continue
			}
			*sess = s
		}
		outs, err := runOnce(ctx, *sess, a)
		if err == nil {
			return outs, nil
		}
		lastErr = err
		(*sess).Close()
		*sess = nil
	}
	return nil, fmt.Errorf("dist: piece of range %d (%d jobs) failed %d attempts: %w", a.Start, len(a.Jobs), maxRetries+1, lastErr)
}

// runOnce runs one piece on one session, buffering and validating it: every
// index of its Indices table exactly once, nothing else. Buffering is what
// makes retry safe — a piece either lands whole or contributes nothing.
func runOnce(ctx context.Context, sess Session, a Assignment) ([]engine.RunOutcome, error) {
	outs := make([]engine.RunOutcome, 0, len(a.Jobs))
	seen := make([]bool, len(a.Jobs))
	slotOf := func(global int) int {
		if i := sort.SearchInts(a.Indices, global); i < len(a.Indices) && a.Indices[i] == global {
			return i
		}
		return -1
	}
	err := sess.Run(ctx, a, func(out engine.RunOutcome) error {
		i := slotOf(out.Index)
		if i < 0 {
			return fmt.Errorf("dist: worker emitted index %d outside its piece of range %d", out.Index, a.Start)
		}
		if seen[i] {
			return fmt.Errorf("dist: worker emitted index %d twice", out.Index)
		}
		seen[i] = true
		outs = append(outs, out)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(outs) != len(a.Jobs) {
		return nil, fmt.Errorf("dist: worker delivered %d of %d outcomes for a piece of range %d", len(outs), len(a.Jobs), a.Start)
	}
	return outs, nil
}
