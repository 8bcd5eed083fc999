package dist

import (
	"context"
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
	// Dialer supplies worker sessions (required).
	Dialer Dialer
	// Shards is the number of concurrent worker sessions (default 1).
	Shards int
	// ChunkPoints is the assignment granularity — how many consecutive
	// enumeration points each worker range carries (default 32). Smaller
	// chunks checkpoint and rebalance finer; larger ones amortise wire and
	// dial overhead.
	ChunkPoints int
	// Instrs, when non-zero, is the committed-instruction budget workers
	// apply to every job — the distributed analogue of
	// engine.WithInstrBudget. It participates in the journal fingerprint.
	Instrs uint64
	// Journal is the checkpoint file path; "" disables checkpointing.
	Journal string
	// MaxRetries bounds how many times a range is re-dialed and re-run
	// after its session fails (0 = default 2; negative = never retry).
	MaxRetries int
	// Cache, when non-nil, is a cross-sweep result cache (shared across
	// sweeps and, behind a service, across clients). Before a range is
	// shipped, each of its jobs is looked up; hits are served without worker
	// execution (tagged with this sweep's index and name, Cached=true) and
	// only the misses travel, as a sparse assignment. Fresh successful
	// results — and journal-replayed ones — are written back, so sweeps
	// sharing the cache share completed points.
	Cache *engine.ResultCache
	// Quiesce, when non-nil, is the graceful-drain signal: once it is
	// closed, the coordinator stops dispatching new ranges, lets in-flight
	// ranges complete (journaled and yielded as usual), and then ends the
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
	switch {
	case opts.MaxRetries == 0:
		opts.MaxRetries = 2
	case opts.MaxRetries < 0:
		opts.MaxRetries = 0
	}
	return &Coordinator{opts: opts}
}

// fingerprint binds a journal to one sweep identity: the plan's shape (point
// count, row/col labels) plus the chunking and budget that determine range
// boundaries and results. Two sweeps with the same fingerprint produce
// interchangeable journals; anything else must be rejected at open.
func (c *Coordinator) fingerprint(p *engine.Plan) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "points=%d chunk=%d instrs=%d", p.Points(), c.opts.ChunkPoints, c.opts.Instrs)
	for _, r := range p.Rows() {
		fmt.Fprintf(h, "|r:%s", r)
	}
	for _, col := range p.Cols() {
		fmt.Fprintf(h, "|c:%s", col)
	}
	return h.Sum64()
}

// rangeResult is one range's merged fate, delivered shard -> coordinator.
type rangeResult struct {
	start   int
	outs    []engine.RunOutcome
	shipped int   // jobs a worker executed; 0 = served wholly from the cache
	err     error // terminal: the range exhausted its retries
}

// Stream executes every point of the plan across the coordinator's shards
// and yields outcomes as ranges complete. The contract is engine.Stream's,
// reassembled: completion order across ranges, enumeration order within one,
// every outcome index-tagged; per-job failures ride inside outcomes; a
// stream-level failure (context death, a range out of retries, a journal
// write error) yields once as a terminal (zero, error) pair. Breaking out of
// the loop cancels outstanding assignments before the iterator returns.
//
// With a journal configured, ranges completed by a previous run replay from
// disk first (no re-execution), then the remainder executes; a consumer that
// needs the full stream — a stats.Collector — sees every outcome exactly
// once either way.
func (c *Coordinator) Stream(ctx context.Context, p *engine.Plan) iter.Seq2[engine.RunOutcome, error] {
	return func(yield func(engine.RunOutcome, error) bool) {
		if err := p.Err(); err != nil {
			yield(engine.RunOutcome{}, err)
			return
		}
		if c.opts.Dialer == nil {
			yield(engine.RunOutcome{}, fmt.Errorf("dist: coordinator has no dialer"))
			return
		}
		points := p.Points()
		chunk := c.opts.ChunkPoints

		var jr *Journal
		completed := map[int][]engine.RunOutcome{}
		if c.opts.Journal != "" {
			var err error
			jr, completed, err = OpenJournal(c.opts.Journal, c.fingerprint(p), points, chunk)
			if err != nil {
				yield(engine.RunOutcome{}, err)
				return
			}
			defer jr.Close()
		}

		// A journal primes the shared result cache before anything replays:
		// ranges completed by a previous run are proven results for their
		// simulation identities, and a service restart re-warms its cache
		// from them.
		if c.opts.Cache != nil {
			for _, outs := range completed {
				for _, out := range outs {
					c.primeCache(out)
				}
			}
		}

		// Replay journaled ranges before executing anything: the resumed
		// stream is indistinguishable from a slow first run.
		starts := make([]int, 0, len(completed))
		for s := range completed {
			starts = append(starts, s)
		}
		sort.Ints(starts)
		for _, s := range starts {
			for _, out := range completed[s] {
				if !yield(out, nil) {
					return
				}
			}
		}

		remaining := 0
		for start := 0; start < points; start += chunk {
			if _, ok := completed[start]; !ok {
				remaining++
			}
		}
		if remaining == 0 {
			if err := ctx.Err(); err != nil {
				yield(engine.RunOutcome{}, err)
			}
			return
		}

		parent := ctx
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()

		// The dispatcher walks the plan's enumeration exactly once (O(points)
		// total, O(chunk) live), slicing it into assignments and skipping
		// journaled ranges.
		work := make(chan Assignment)
		go func() {
			defer close(work)
			next, stop := iter.Pull2(p.Jobs())
			defer stop()
			for start := 0; start < points; start += chunk {
				count := min(chunk, points-start)
				_, done := completed[start]
				var jobs []engine.Job
				if !done {
					jobs = make([]engine.Job, 0, count)
				}
				for j := 0; j < count; j++ {
					_, job, ok := next()
					if !ok {
						return // plan shorter than Points() promised; shard validation catches it
					}
					if !done {
						jobs = append(jobs, job)
					}
				}
				if done {
					continue
				}
				select {
				case work <- Assignment{Start: start, Jobs: jobs, Instrs: c.opts.Instrs}:
				case <-ctx.Done():
					return
				case <-c.opts.Quiesce:
					// Graceful drain: stop handing out ranges; closing work
					// lets the shard loops finish what they hold and exit.
					return
				}
			}
		}()

		deliveries := make(chan rangeResult)
		var wg sync.WaitGroup
		for i := 0; i < c.opts.Shards; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.shardLoop(ctx, work, deliveries)
			}()
		}
		go func() {
			wg.Wait()
			close(deliveries)
		}()
		// drain cancels outstanding work and reaps every shard goroutine
		// before the iterator returns — the same no-leak guarantee
		// engine.Stream gives on early break.
		drain := func() {
			cancel()
			for range deliveries {
			}
		}

		for remaining > 0 {
			d, ok := <-deliveries
			if !ok {
				// Every shard exited with ranges outstanding: the context
				// died, or a graceful drain stopped dispatch (shards report
				// their own terminal errors otherwise).
				switch {
				case parent.Err() != nil:
					yield(engine.RunOutcome{}, parent.Err())
				case quiesced(c.opts.Quiesce):
					yield(engine.RunOutcome{}, fmt.Errorf("%w: %d ranges not dispatched", ErrQuiesced, remaining))
				default:
					yield(engine.RunOutcome{}, fmt.Errorf("dist: shards exited with %d ranges outstanding", remaining))
				}
				return
			}
			if d.err != nil {
				drain()
				yield(engine.RunOutcome{}, d.err)
				return
			}
			// An executed range is journaled durably before it is yielded:
			// once the consumer has seen it, it must never replay
			// differently. A range no worker ran replays identically from
			// the cache, so it is journaled after delivery, unsynced, off
			// the consumer's path.
			if jr != nil && d.shipped > 0 {
				if err := jr.Commit(d.start, d.outs); err != nil {
					drain()
					yield(engine.RunOutcome{}, err)
					return
				}
			}
			for _, out := range d.outs {
				if !yield(out, nil) {
					drain()
					return
				}
			}
			if jr != nil && d.shipped == 0 {
				if err := jr.note(d.start, d.outs); err != nil {
					drain()
					yield(engine.RunOutcome{}, err)
					return
				}
			}
			remaining--
		}
		drain()
		if err := parent.Err(); err != nil {
			yield(engine.RunOutcome{}, err)
		}
	}
}

// Sweep is the ordered collector over Stream: one outcome per plan point, in
// enumeration order.
func (c *Coordinator) Sweep(ctx context.Context, p *engine.Plan) ([]engine.RunOutcome, error) {
	outs := make([]engine.RunOutcome, p.Points())
	for out, err := range c.Stream(ctx, p) {
		if err != nil {
			return outs, err
		}
		outs[out.Index] = out
	}
	return outs, nil
}

// shardLoop is one shard slot: it keeps (at most) one live session, pulls
// assignments, and delivers each range's buffered outcomes. Session failures
// are retried on fresh dials inside runRange; a range that exhausts its
// retries is delivered as a terminal error.
func (c *Coordinator) shardLoop(ctx context.Context, work <-chan Assignment, deliveries chan<- rangeResult) {
	var sess Session
	defer func() {
		if sess != nil {
			sess.Close()
		}
	}()
	for {
		var a Assignment
		var ok bool
		select {
		case a, ok = <-work:
			if !ok {
				return
			}
		case <-ctx.Done():
			return
		}
		outs, shipped, err := c.runRange(ctx, &sess, a)
		if err != nil && ctx.Err() != nil {
			return // the stream is unwinding; its own terminal error wins
		}
		select {
		case deliveries <- rangeResult{start: a.Start, outs: outs, shipped: shipped, err: err}:
		case <-ctx.Done():
			return
		}
		if err != nil {
			return
		}
	}
}

// quiesced reports whether a (possibly nil) quiesce channel has fired.
func quiesced(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// primeCache writes one journal-replayed outcome into the shared result
// cache (successes only; an unresolvable job is simply not cacheable).
func (c *Coordinator) primeCache(out engine.RunOutcome) {
	if out.Err != nil {
		return
	}
	if _, key, err := engine.ResolveJob(out.Job, c.opts.Instrs); err == nil {
		c.opts.Cache.Put(key, out.Result)
	}
}

// runRange obtains one range's outcomes: served from the shared result
// cache where possible, executed on a worker otherwise. It also reports how
// many jobs it shipped to a worker (Cached cannot tell: a worker's own memo
// hits set it too). Without a cache it is exactly execRange.
func (c *Coordinator) runRange(ctx context.Context, sess *Session, a Assignment) ([]engine.RunOutcome, int, error) {
	if c.opts.Cache == nil {
		outs, err := c.execRange(ctx, sess, a)
		return outs, len(a.Jobs), err
	}
	// Split the range on the cache: hits fill their slots directly
	// (tagged with this sweep's index and display name), misses ship as a
	// sparse assignment carrying their global indices. A fully cached range
	// never dials a worker at all, which is what lets a second, overlapping
	// sweep complete even with zero live workers.
	outs := make([]engine.RunOutcome, len(a.Jobs))
	keys := make([]engine.JobKey, len(a.Jobs))
	keyed := make([]bool, len(a.Jobs))
	var missJobs []engine.Job
	var missIdx, missSlot []int
	for i, job := range a.Jobs {
		gi := a.globalIndex(i)
		rj, key, err := engine.ResolveJob(job, a.Instrs)
		if err == nil {
			keys[i], keyed[i] = key, true
			if res, ok := c.opts.Cache.Get(key); ok {
				outs[i] = engine.RunOutcome{Job: rj, Index: gi, Result: res, Cached: true}
				continue
			}
		}
		// Unresolvable jobs travel too, so their failure outcomes are
		// produced by the same worker path a cacheless run takes.
		missJobs = append(missJobs, job)
		missIdx = append(missIdx, gi)
		missSlot = append(missSlot, i)
	}
	if len(missJobs) > 0 {
		sub := Assignment{Start: a.Start, Jobs: missJobs, Indices: missIdx, Instrs: a.Instrs}
		fresh, err := c.execRange(ctx, sess, sub)
		if err != nil {
			return nil, 0, err
		}
		slotByGlobal := make(map[int]int, len(missIdx))
		for j, gi := range missIdx {
			slotByGlobal[gi] = missSlot[j]
		}
		for _, out := range fresh {
			slot := slotByGlobal[out.Index]
			outs[slot] = out
			if keyed[slot] && out.Err == nil {
				c.opts.Cache.Put(keys[slot], out.Result)
			}
		}
	}
	return outs, len(missJobs), nil
}

// execRange executes one assignment on a worker, re-dialing and re-running
// on a fresh session after failures (a dead worker's range is reassigned
// wholesale — a range is only ever delivered complete, so a retry can never
// double-deliver a partially-streamed range's outcomes). *sess is the
// shard's cached session: nil-on-entry means dial, and a failed session is
// closed and nilled so the next attempt (or assignment) starts clean.
func (c *Coordinator) execRange(ctx context.Context, sess *Session, a Assignment) ([]engine.RunOutcome, error) {
	var lastErr error
	for attempt := 0; attempt <= c.opts.MaxRetries; attempt++ {
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
	return nil, fmt.Errorf("dist: range [%d,%d) failed %d attempts: %w", a.Start, a.End(), c.opts.MaxRetries+1, lastErr)
}

// runOnce runs one assignment on one session, buffering and validating the
// range: every carried index (contiguous [Start, End) in the dense form, the
// Indices table in the sparse one), each exactly once, nothing outside.
// Buffering is what makes retry safe — a range either delivers whole or
// contributes nothing.
func runOnce(ctx context.Context, sess Session, a Assignment) ([]engine.RunOutcome, error) {
	outs := make([]engine.RunOutcome, 0, len(a.Jobs))
	seen := make([]bool, len(a.Jobs))
	slotOf := func(global int) int {
		if a.Indices == nil {
			if i := global - a.Start; i >= 0 && i < len(a.Jobs) {
				return i
			}
			return -1
		}
		if i := sort.SearchInts(a.Indices, global); i < len(a.Indices) && a.Indices[i] == global {
			return i
		}
		return -1
	}
	err := sess.Run(ctx, a, func(out engine.RunOutcome) error {
		i := slotOf(out.Index)
		if i < 0 {
			return fmt.Errorf("dist: worker emitted index %d outside range [%d,%d)", out.Index, a.Start, a.End())
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
		return nil, fmt.Errorf("dist: worker delivered %d of %d outcomes for range [%d,%d)", len(outs), len(a.Jobs), a.Start, a.End())
	}
	return outs, nil
}
