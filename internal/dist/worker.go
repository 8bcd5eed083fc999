package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"

	"fdip/internal/engine"
)

// Worker is the execution side of a shard: it runs assignments on pooled
// engines (one per instruction budget, sharing a single image cache) and is
// what cmd/fdipd serves over HTTP. A Worker is stateless across assignments
// in the contract's sense — all durable progress lives in the coordinator's
// journal — so killing one mid-assignment loses nothing but the
// assignment's partial work.
type Worker struct {
	workers int
	images  *engine.ImageCache

	mu      sync.Mutex
	engines map[uint64]*engine.Engine
}

// NewWorker builds a worker whose engines run at most workers concurrent
// simulations (0 = GOMAXPROCS).
func NewWorker(workers int) *Worker {
	return &Worker{
		workers: workers,
		images:  engine.NewImageCache(),
		engines: make(map[uint64]*engine.Engine),
	}
}

// Slots is how many simulations the worker runs at once. Its HTTP handler
// reports it on every response (slotsHeader), which is how a Registry learns
// its workers' slots.
func (w *Worker) Slots() int { return workerSlots(w.workers) }

// workerSlots resolves a worker count the way the engine does (0 =
// GOMAXPROCS).
func workerSlots(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// engineFor returns the engine for an instruction budget, building it on
// first use. Budgets get separate engines because the budget participates in
// the memo key's config; the image cache is shared across all of them.
func (w *Worker) engineFor(instrs uint64) *engine.Engine {
	w.mu.Lock()
	defer w.mu.Unlock()
	e, ok := w.engines[instrs]
	if !ok {
		e = engine.New(
			engine.WithWorkers(w.workers),
			engine.WithInstrBudget(instrs),
			engine.WithImageCache(w.images),
		)
		w.engines[instrs] = e
	}
	return e
}

// Run executes one assignment, emitting each outcome (completion order,
// indices re-tagged from range-local to the plan's global enumeration space
// — dense offset or the sparse Indices table). Per-job failures are outcomes
// with Err set; the returned error is assignment-terminal (a malformed
// assignment, a stream-level engine failure, or an emit failure).
func (w *Worker) Run(ctx context.Context, a Assignment, emit func(engine.RunOutcome) error) error {
	if err := a.check(); err != nil {
		return fmt.Errorf("dist: worker: %w", err)
	}
	eng := w.engineFor(a.Instrs)
	for out, err := range eng.StreamJobs(ctx, a.Jobs) {
		if err != nil {
			return err
		}
		out.Index = a.globalIndex(out.Index)
		if err := emit(out); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// Handler returns the HTTP transport: POST one assign frame, receive the
// assignment's NDJSON outcome frames (flushed per frame, so the coordinator
// streams instead of buffering the whole assignment) ending in a done or
// error terminator. Every response reports the worker's Slots in its
// slotsHeader. Mount it at /v1/run — the path HTTP dialers post to.
func (w *Worker) Handler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(rw, "dist: POST one assign frame", http.StatusMethodNotAllowed)
			return
		}
		a, err := decodeAssign(req.Body)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		rw.Header().Set("Content-Type", "application/x-ndjson")
		rw.Header().Set(slotsHeader, strconv.Itoa(w.Slots()))
		enc := json.NewEncoder(rw)
		fl, _ := rw.(http.Flusher)
		send := func(f frame) error {
			if err := enc.Encode(f); err != nil {
				return err
			}
			if fl != nil {
				fl.Flush()
			}
			return nil
		}
		runErr := w.Run(req.Context(), a, func(out engine.RunOutcome) error {
			return send(frame{Type: "outcome", Outcome: &out})
		})
		if runErr != nil {
			send(frame{Type: "error", Error: runErr.Error()})
			return
		}
		send(frame{Type: "done"})
	})
}

// decodeAssign reads a run request's body: one assign frame whose assignment
// passes Assignment.check. Anything else is an error, which the handler
// answers with 400 before any engine is built.
func decodeAssign(body io.Reader) (Assignment, error) {
	var f frame
	if err := json.NewDecoder(body).Decode(&f); err != nil {
		return Assignment{}, fmt.Errorf("dist: body must be a single assign frame: %v", err)
	}
	if f.Type != "assign" || f.Assign == nil {
		return Assignment{}, fmt.Errorf("dist: body must be a single assign frame, not type %q", f.Type)
	}
	return *f.Assign, f.Assign.check()
}
