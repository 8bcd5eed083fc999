package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fdip/internal/core"
	"fdip/internal/dist"
	"fdip/internal/engine"
	"fdip/internal/prefetch"
	"fdip/internal/svc"
	"fdip/internal/workloads"
)

// The service-mix workload: one closed-loop client submitting 8-point
// sweeps (a workload pair x 4 configurations) to an in-process svc.Server
// on loopback HTTP, executed by two registered single-simulation
// dist.Workers. Cold sweeps (all 8 points new), overlap sweeps (4 points
// served by the service's result cache, 4 new) and exact repeats of an
// earlier sweep (all 8 cached, no simulation) come 1:1:2, so the cache
// serves 5/8 of all points. The fresh simulations of cold and overlap
// sweeps set sim_minstr_per_s and the repeats set op_p50_ms: a change that
// trades one for the other moves one of the two.
const (
	svcWorkers     = 2
	svcShards      = 2
	svcChunkPoints = 4
	svcPointsPer   = 8
	// svcWarmInstrs is the warm-up budget; the timed loop never uses it, so
	// warm-up results cannot be served from any cache in the loop.
	svcWarmInstrs = 1_001
	// svcEpochTime is the nominal time of one epoch of the script.
	svcEpochTime = 2000 * time.Millisecond
)

// svcPattern is the sweep kind at each position of an eight-sweep group.
// Each half of a group serves one workload pair: a cold sweep, then an
// overlap sweep that reuses two of the pair's earlier configurations.
var svcPattern = [8]string{"cold", "repeat", "overlap", "repeat", "cold", "repeat", "overlap", "repeat"}

// svcGroups is how many groups one epoch of the script runs. Group g serves
// pairs 2g and 2g+1 (mod 4), so over an epoch every pair has two cold
// sweeps and two overlap sweeps, which use every configuration of the pool
// exactly once.
const svcGroups = 4

// svcPairs are the fixed disjoint workload pairs: a sweep's rows.
var svcPairs = [][]string{{"gcc", "go"}, {"groff", "m88ksim"}, {"perl", "vortex"}, {"deltablue", "tex"}}

// svcConfigPool is every sweep column: the paper's prefetch schemes x L1-I
// size, 12 configurations, as many as two cold and two overlap sweeps of
// one pair take.
func svcConfigPool() []svc.ConfigPoint {
	type scheme struct {
		name string
		kind core.PrefetcherKind
		cpf  prefetch.CPFMode
	}
	schemes := []scheme{
		{"none", core.PrefetchNone, prefetch.CPFOff},
		{"nextline", core.PrefetchNextLine, prefetch.CPFOff},
		{"streambuf", core.PrefetchStream, prefetch.CPFOff},
		{"fdp", core.PrefetchFDP, prefetch.CPFOff},
		{"fdp+cpf", core.PrefetchFDP, prefetch.CPFConservative},
		{"fdp+cpf-opt", core.PrefetchFDP, prefetch.CPFOptimistic},
	}
	var pool []svc.ConfigPoint
	for _, s := range schemes {
		for _, kb := range []int{8, 32} {
			cfg := core.DefaultConfig()
			cfg.Prefetch.Kind = s.kind
			cfg.Prefetch.FDP.CPF = s.cpf
			cfg.L1ISizeBytes = kb * 1024
			pool = append(pool, svc.ConfigPoint{Name: fmt.Sprintf("%s/%dK", s.name, kb), Config: cfg})
		}
	}
	return pool
}

// plannedSweep is one sweep of the script.
type plannedSweep struct {
	req  svc.SubmitRequest
	kind string
}

// svcScript is the seeded sweep sequence of one epoch. Each (pair,
// configuration) cell is simulated cold exactly once: cold and overlap
// sweeps take each pair's next configurations in pool order, an overlap
// sweep two of the pair's earlier ones as well, and a repeat resubmits an
// earlier sweep of the script unchanged. The seed picks the overlaps'
// earlier configurations, the column order and what each repeat repeats;
// the fresh work is the same for every seed.
func svcScript(seed int64, instrs uint64) []plannedSweep {
	rng := rand.New(rand.NewSource(seed))
	pool := svcConfigPool()
	used := make([]int, len(svcPairs)) // per pair: configurations taken, in pool order
	var script, history []plannedSweep
	for g := 0; g < svcGroups; g++ {
		for j, kind := range svcPattern {
			if kind == "repeat" {
				script = append(script, plannedSweep{history[rng.Intn(len(history))].req, kind})
				continue
			}
			p, newCols, oldCols := (2*g+j/(len(svcPattern)/2))%len(svcPairs), 4, 0
			if kind == "overlap" {
				newCols, oldCols = 2, 2
			}
			cols := rng.Perm(used[p])[:oldCols]
			for k := range newCols {
				cols = append(cols, used[p]+k)
			}
			used[p] += newCols
			rng.Shuffle(len(cols), func(a, b int) { cols[a], cols[b] = cols[b], cols[a] })
			req := svc.SubmitRequest{Label: fmt.Sprintf("%s-%d", kind, len(script)), Workloads: svcPairs[p], Instrs: instrs}
			for _, c := range cols {
				req.Configs = append(req.Configs, pool[c])
			}
			script = append(script, plannedSweep{req, kind})
			history = append(history, plannedSweep{req, kind})
		}
	}
	return script
}

// wantCached is how many of a sweep's points the service's result cache
// must serve.
func wantCached(kind string) int {
	switch kind {
	case "overlap":
		return svcPointsPer / 2
	case "repeat":
		return svcPointsPer
	}
	return 0
}

// sweepRef names the sweep in flight and the span its ranges hang off, for
// worker-side range records.
type sweepRef struct{ seq, span, trace int }

// rangeRec is one dist range as the worker's HTTP handler served it.
type rangeRec struct {
	sweep       int
	start, end  time.Time
	reqB, respB int64
	jobs        int
}

// rangeTimer wraps a dist.Worker's handler: it times each range request and
// counts its wire bytes and outcome frames, without touching the worker.
type rangeTimer struct {
	next http.Handler
	cur  *atomic.Pointer[sweepRef]
	tr   *tracer

	mu     sync.Mutex
	ranges []rangeRec
}

func (t *rangeTimer) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	ref := t.cur.Load()
	start := time.Now()
	body := &countingReader{r: req.Body}
	req.Body = body
	cw := &countingWriter{w: w}
	t.next.ServeHTTP(cw, req)
	end := time.Now()
	t.tr.add("dist.range", ref.span, ref.trace, start, end)
	t.mu.Lock()
	// The last frame is the done/error terminator; the rest are outcomes.
	t.ranges = append(t.ranges, rangeRec{sweep: ref.seq, start: start, end: end, reqB: body.n, respB: cw.n, jobs: max(cw.lines-1, 0)})
	t.mu.Unlock()
}

type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

// countingWriter forwards Flush, so the worker still streams per frame.
type countingWriter struct {
	w     http.ResponseWriter
	n     int64
	lines int
}

func (c *countingWriter) Header() http.Header    { return c.w.Header() }
func (c *countingWriter) WriteHeader(status int) { c.w.WriteHeader(status) }
func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.lines += bytes.Count(p[:n], []byte{'\n'})
	return n, err
}
func (c *countingWriter) Flush() {
	if f, ok := c.w.(http.Flusher); ok {
		f.Flush()
	}
}

// serviceRig is the running service: server, its HTTP front, two workers.
type serviceRig struct {
	dir     string
	srv     *svc.Server
	client  *svc.Client
	tr      *tracer
	cur     atomic.Pointer[sweepRef]
	servers []*http.Server
	timers  []*rangeTimer
	serving sync.WaitGroup
}

// serve starts h on a loopback port and returns its base URL.
func (rig *serviceRig) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	rig.servers = append(rig.servers, hs)
	rig.serving.Add(1)
	go func() {
		defer rig.serving.Done()
		_ = hs.Serve(ln) // returns ErrServerClosed once close runs
	}()
	return "http://" + ln.Addr().String(), nil
}

// startService builds the service in dir, starts and warms two workers
// (every workload on each, at the warm-up budget, through a direct dist
// session), registers them, and runs one warm-up sweep through the service.
func startService(ctx context.Context, dir string, tr *tracer) (*serviceRig, error) {
	srv, err := svc.New(svc.Options{StateDir: dir, Shards: svcShards, ChunkPoints: svcChunkPoints})
	if err != nil {
		return nil, err
	}
	rig := &serviceRig{dir: dir, srv: srv, tr: tr}
	rig.cur.Store(&sweepRef{})
	base, err := rig.serve(srv.Handler())
	if err != nil {
		rig.close()
		return nil, err
	}
	rig.client = &svc.Client{Base: base}

	var warm []engine.Job
	for _, name := range workloads.Names() {
		warm = append(warm, engine.Job{Workload: name, Config: core.DefaultConfig()})
	}
	for i := 0; i < svcWorkers; i++ {
		t := &rangeTimer{next: dist.NewWorker(1).Handler(), cur: &rig.cur, tr: tr}
		rig.timers = append(rig.timers, t)
		url, err := rig.serve(t)
		if err == nil {
			err = warmWorker(ctx, url, warm)
		}
		if err == nil {
			err = rig.client.Register(ctx, fmt.Sprintf("w%d", i+1), url, time.Hour)
		}
		if err != nil {
			rig.close()
			return nil, fmt.Errorf("worker %d: %w", i+1, err)
		}
	}
	req := svc.SubmitRequest{Label: "warm-up", Workloads: workloads.Names(), Instrs: svcWarmInstrs,
		Configs: []svc.ConfigPoint{{Name: "default", Config: core.DefaultConfig()}}}
	if _, err := rig.sweep(ctx, req, 0); err != nil {
		rig.close()
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	return rig, nil
}

func warmWorker(ctx context.Context, url string, jobs []engine.Job) error {
	sess, err := dist.HTTP{URL: url}.Dial(ctx)
	if err != nil {
		return err
	}
	defer sess.Close()
	return sess.Run(ctx, dist.Assignment{Jobs: jobs, Instrs: svcWarmInstrs}, func(out engine.RunOutcome) error {
		return out.Err
	})
}

// ranges returns the workers' range records of timed sweeps (set-up
// ranges carry sweep 0).
func (rig *serviceRig) ranges() []rangeRec {
	var out []rangeRec
	for _, t := range rig.timers {
		t.mu.Lock()
		for _, rr := range t.ranges {
			if rr.sweep > 0 {
				out = append(out, rr)
			}
		}
		t.mu.Unlock()
	}
	return out
}

// close stops the service and its workers and deletes the state directory.
// Errors are dropped: the rig is torn down either way, and nothing it held
// is read again.
func (rig *serviceRig) close() {
	if rig.srv != nil {
		_ = rig.srv.Shutdown()
	}
	for _, hs := range rig.servers {
		_ = hs.Close()
	}
	rig.serving.Wait()
	_ = os.RemoveAll(rig.dir)
}

// sweepRec is one sweep as the client saw it.
type sweepRec struct {
	seq                    int
	kind                   string
	id                     string
	start, ack, first, end time.Time
	rows                   []engine.RunOutcome
}

// sweep submits req and follows its stream to the terminal frame.
func (rig *serviceRig) sweep(ctx context.Context, req svc.SubmitRequest, seq int) (*sweepRec, error) {
	tr := rig.tr
	rec := &sweepRec{seq: seq, start: time.Now()}
	root := tr.begin("bench.sweep", 0, seq)
	defer tr.end(root)
	rig.cur.Store(&sweepRef{seq: seq, span: root, trace: seq})
	sp := tr.begin("svc.submit", root, seq)
	st, err := rig.client.Submit(ctx, req)
	tr.end(sp)
	rec.ack = time.Now()
	if err != nil {
		return nil, err
	}
	rec.id = st.ID
	sp = tr.begin("svc.stream", root, seq)
	// Ranges the workers serve from here on are what the stream waits for.
	rig.cur.Store(&sweepRef{seq: seq, span: sp, trace: seq})
	err = rig.client.Stream(ctx, st.ID, 0, func(f svc.StreamFrame) error {
		if rec.rows == nil {
			rec.first = time.Now()
		}
		rec.rows = append(rec.rows, *f.Outcome)
		return nil
	})
	tr.end(sp)
	rec.end = time.Now()
	return rec, err
}

// rowKey identifies a service point: workload and configuration label.
func rowKey(req svc.SubmitRequest, index int) (string, svc.ConfigPoint) {
	w := req.Workloads[index/len(req.Configs)]
	c := req.Configs[index%len(req.Configs)]
	return w + "|" + c.Name, c
}

func runService(ctx context.Context, o options) (*report, error) {
	r := newReport(o.workload)
	tr := o.tr
	instrs := scaled(300_000, o.scale)
	newRig := func() (*serviceRig, error) {
		dir, err := os.MkdirTemp(o.workdir, "svc-state-")
		if err != nil {
			return nil, err
		}
		return startService(ctx, dir, tr)
	}

	script := svcScript(o.seed, instrs)

	// Set-up: build and warm the service, setupRuns times; the last one
	// serves the first epoch.
	var rig *serviceRig
	var setupSecs []float64
	for i := 0; i < setupRuns; i++ {
		if rig != nil {
			rig.close()
		}
		settle()
		start := time.Now()
		var err error
		if rig, err = newRig(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupSecs = append(setupSecs, time.Since(start).Seconds())
	}
	setup, _ := quantile(setupSecs, 0.5)
	r.set("setup_s", setup)

	// Timed loop: one client, one sweep in flight. Each epoch runs the whole
	// script on a fresh service (empty caches and machine pools), so every
	// epoch is the same work; the end-to-end numbers use each group's and
	// each sweep's fastest epoch: the host is shared, and interference from
	// outside only ever adds time.
	known := make(map[string]core.Result)
	cfgOf := make(map[string]svc.ConfigPoint)
	bestMs := make([]float64, len(script))
	for i := range bestMs {
		bestMs[i] = math.Inf(1)
	}
	groupBest := make([]time.Duration, svcGroups)
	for g := range groupBest {
		groupBest[g] = math.MaxInt64
	}
	groupFresh := make([]int64, svcGroups)
	groupRows := make([]int, svcGroups)
	var (
		sweeps                   []*sweepRec
		ranges                   []rangeRec
		latMs                    []float64
		rejected, cached, points int
		timed                    time.Duration
		digestRows               [][]core.Result
	)
	const digestSweeps = 10
	for epoch, seq := 0, 0; epoch < o.rounds(svcEpochTime, len(script)); epoch++ {
		if epoch > 0 {
			settle()
			var err error
			if rig, err = newRig(); err != nil {
				return nil, err
			}
		}
		for g := 0; g < svcGroups; g++ {
			groupStart := time.Now()
			var fresh int64
			rows := 0
			for j := range svcPattern {
				i := g*len(svcPattern) + j
				ps := script[i]
				seq++
				rec, err := rig.sweep(ctx, ps.req, seq)
				if err != nil {
					if ctx.Err() != nil {
						rig.close()
						return nil, ctx.Err()
					}
					if errors.Is(err, svc.ErrQueueFull) {
						rejected++
					}
					latMs = append(latMs, math.Inf(1))
					r.check(false, "sweep %d (%s): %v", seq, ps.kind, err)
					continue
				}
				rec.kind = ps.kind
				sweeps = append(sweeps, rec)
				ms := float64(rec.end.Sub(rec.start).Nanoseconds()) / 1e6
				latMs = append(latMs, ms)
				bestMs[i] = min(bestMs[i], ms)
				rows += len(rec.rows)
				rowsOK := checkRows(ps.req, rec, known, cfgOf, &fresh)
				r.check(rowsOK, "sweep %d (%s): rows", seq, ps.kind)
				if o.trace {
					st, err := rig.client.Job(ctx, rec.id)
					r.check(err == nil && st.Cached == wantCached(ps.kind) && st.Points == svcPointsPer,
						"sweep %d (%s): status %+v (err %v), want %d cached", seq, ps.kind, st, err, wantCached(ps.kind))
					cached += st.Cached
					points += st.Points
				}
				if rowsOK && len(digestRows) < digestSweeps {
					ordered := make([]core.Result, len(rec.rows))
					for _, row := range rec.rows {
						ordered[row.Index] = row.Result
					}
					digestRows = append(digestRows, ordered)
				}
			}
			wall := time.Since(groupStart)
			timed += wall
			groupBest[g] = min(groupBest[g], wall)
			settle()
			if epoch == 0 {
				groupFresh[g], groupRows[g] = fresh, rows
			} else {
				r.check(fresh == groupFresh[g] && rows == groupRows[g], "group %d simulated different work in epoch %d", g, epoch)
			}
		}
		ranges = append(ranges, rig.ranges()...)
		rig.close()
	}
	r.Digest = digestOf(digestRows)

	var best time.Duration
	var fresh int64
	for g := range groupBest {
		best += groupBest[g]
		fresh += groupFresh[g]
	}
	r.set("sim_minstr_per_s", ratio(float64(fresh)*1e3, float64(best.Nanoseconds())))
	// The op is a cached repeat: the sweep a user waits on the service alone
	// for. Cold and overlap sweeps are simulation time, which
	// sim_minstr_per_s measures.
	var repeatMs []float64
	for i, ps := range script {
		if ps.kind == "repeat" {
			repeatMs = append(repeatMs, bestMs[i])
		}
	}
	r.setQuantile("op_p50_ms", repeatMs, 0.5)
	r.setQuantile("bench.op_p90_ms", latMs, 0.9)

	// Output check (untimed): a seeded tenth of the distinct points through
	// a fresh single-worker engine.
	settle()
	keys := make([]string, 0, len(known))
	for k := range known {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rng := rand.New(rand.NewSource(o.seed))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	eng := engine.New(engine.WithWorkers(1), engine.WithInstrBudget(instrs))
	for _, k := range keys[:min(len(keys), max(1, len(keys)/10))] {
		w, _, _ := strings.Cut(k, "|")
		res, err := eng.Run(ctx, engine.Job{Workload: w, Config: cfgOf[k].Config})
		r.check(err == nil && res == known[k], "service point %s differs from the reference engine (err %v)", k, err)
	}

	setServiceLayers(r, ranges, sweeps, timed)
	r.set("svc.rejected", float64(rejected))
	if o.trace {
		r.set("svc.cache_served_ratio", ratio(float64(cached), float64(points)))
		if err := timeGenerate(r, tr); err != nil {
			return nil, err
		}
		ms, err := journalCommitMs(o.workdir, sweeps)
		if err != nil {
			return nil, err
		}
		r.set("dist.journal_commit_ms", ms)
		reportTrace(r, tr, len(latMs), timed)
	}
	r.set("program.images", 0)
	r.zero("oracle.", "core.", "engine.", "experiments.")
	return r, nil
}

// checkRows verifies one sweep's stream: every plan index exactly once, no
// point error, the service cache served as many points as the sweep kind
// implies, and every point's Result equal to any earlier sighting. Freshly
// simulated instructions accumulate into fresh.
func checkRows(req svc.SubmitRequest, rec *sweepRec, known map[string]core.Result, cfgOf map[string]svc.ConfigPoint, fresh *int64) bool {
	if len(rec.rows) != svcPointsPer {
		return false
	}
	seen := make([]bool, svcPointsPer)
	cached := 0
	for _, row := range rec.rows {
		if row.Err != nil || row.Index < 0 || row.Index >= svcPointsPer || seen[row.Index] {
			return false
		}
		seen[row.Index] = true
		k, c := rowKey(req, row.Index)
		if prev, ok := known[k]; ok {
			if prev != row.Result {
				return false
			}
		} else {
			known[k] = row.Result
			cfgOf[k] = c
		}
		if row.Cached {
			cached++
		} else {
			*fresh += int64(row.Result.Committed)
		}
	}
	return cached == wantCached(rec.kind)
}

// setServiceLayers derives the dist and svc metrics from the sweeps and the
// workers' range records; loop is the timed loop's duration.
func setServiceLayers(r *report, ranges []rangeRec, sweeps []*sweepRec, loop time.Duration) {
	bySweep := make(map[int][]rangeRec)
	var rangeMs []float64
	var jobs int
	var wire int64
	var busy time.Duration
	for _, rr := range ranges {
		bySweep[rr.sweep] = append(bySweep[rr.sweep], rr)
		rangeMs = append(rangeMs, float64(rr.end.Sub(rr.start).Nanoseconds())/1e6)
		jobs += rr.jobs
		wire += rr.reqB + rr.respB
		busy += rr.end.Sub(rr.start)
	}
	r.set("dist.ranges", float64(len(rangeMs)))
	r.set("dist.jobs_shipped", float64(jobs))
	r.setQuantile("dist.range_ms_p50", rangeMs, 0.5)
	r.set("dist.worker_busy_frac", ratio(busy.Seconds(), loop.Seconds()*svcWorkers))
	r.set("dist.wire_bytes_per_point", ratio(float64(wire), float64(jobs)))

	var submit, wait, tail, first []float64
	lat := make(map[string][]float64) // by sweep kind
	for _, s := range sweeps {
		ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
		submit = append(submit, ms(s.ack.Sub(s.start)))
		if s.kind == "cold" {
			first = append(first, ms(s.first.Sub(s.start)))
		}
		lat[s.kind] = append(lat[s.kind], ms(s.end.Sub(s.start)))
		rs := bySweep[s.seq]
		if len(rs) == 0 {
			continue
		}
		firstStart, lastEnd := rs[0].start, rs[0].end
		for _, rr := range rs[1:] {
			if rr.start.Before(firstStart) {
				firstStart = rr.start
			}
			if rr.end.After(lastEnd) {
				lastEnd = rr.end
			}
		}
		wait = append(wait, ms(firstStart.Sub(s.ack)))
		tail = append(tail, ms(s.end.Sub(lastEnd)))
	}
	r.setQuantile("svc.submit_ms_p50", submit, 0.5)
	r.setQuantile("svc.queue_wait_ms_p50", wait, 0.5)
	r.setQuantile("svc.merge_tail_ms_p50", tail, 0.5)
	r.setQuantile("svc.first_row_ms_p50", first, 0.5)
	r.setQuantile("svc.cold_sweep_ms_p50", lat["cold"], 0.5)
	r.setQuantile("svc.overlap_sweep_ms_p50", lat["overlap"], 0.5)
	r.setQuantile("svc.cached_sweep_ms_p50", lat["repeat"], 0.5)
}

// journalCommits is how many range commits the traced run times.
const journalCommits = 20

// journalCommitMs times dist journal commits of real service outcomes (the
// first cold sweep's, one range of svcChunkPoints at a time) in a fresh
// directory under workdir, and returns the median per commit.
func journalCommitMs(workdir string, sweeps []*sweepRec) (float64, error) {
	var outs []engine.RunOutcome
	for _, s := range sweeps {
		if s.kind == "cold" {
			outs = s.rows
			break
		}
	}
	if len(outs) < svcChunkPoints {
		return 0, fmt.Errorf("journal timing: no cold sweep to commit")
	}
	dir, err := os.MkdirTemp(workdir, "journal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	j, _, err := dist.OpenJournal(filepath.Join(dir, "commit.journal"), 1, journalCommits*svcChunkPoints, svcChunkPoints)
	if err != nil {
		return 0, err
	}
	defer j.Close()
	var ms []float64
	for k := 0; k < journalCommits; k++ {
		start := time.Now()
		if err := j.Commit(k*svcChunkPoints, outs[:svcChunkPoints]); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
	}
	v, _ := quantile(ms, 0.5)
	return v, nil
}
