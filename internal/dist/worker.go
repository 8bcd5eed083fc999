package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"

	"fdip/internal/engine"
)

// Worker is the execution side of a shard: it runs assignments on one pooled
// engine and is what cmd/fdipd serves over HTTP. A Worker is stateless across
// assignments in the contract's sense — all durable progress lives in the
// coordinator's journal — so killing one mid-assignment loses nothing but the
// assignment's partial work.
type Worker struct {
	eng *engine.Engine
}

// NewWorker builds a worker whose engine runs at most workers concurrent
// simulations (0 = GOMAXPROCS).
func NewWorker(workers int) *Worker {
	return &Worker{eng: engine.New(engine.WithWorkers(workers))}
}

// Slots is how many simulations the worker runs at once. Its HTTP handler
// reports it on every response (slotsHeader), which is how a Registry learns
// its workers' slots.
func (w *Worker) Slots() int { return w.eng.Workers() }

// Run executes one assignment, emitting each outcome (completion order,
// indices re-tagged from range-local to the plan's global enumeration space
// — dense offset or the sparse Indices table). Per-job failures are outcomes
// with Err set; the returned error is assignment-terminal (a malformed
// assignment, a stream-level engine failure, or an emit failure).
//
// The assignment's budget is applied to a copy of each job's config, so one
// engine serves every budget (the budget is part of the memo identity
// either way). An outcome's job is the one the engine ran; its frame drops
// it, and the coordinator stamps each outcome from its plan.
func (w *Worker) Run(ctx context.Context, a Assignment, emit func(engine.RunOutcome) error) error {
	if err := a.check(); err != nil {
		return fmt.Errorf("dist: worker: %w", err)
	}
	jobs := slices.Clone(a.Jobs)
	for i := range jobs {
		jobs[i].Config = engine.WithBudget(jobs[i].Config, a.Instrs)
	}
	for out, err := range w.eng.StreamJobs(ctx, jobs) {
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

// maxAssignBytes bounds a run request's body. A piece carries at most one
// range's jobs (ChunkPoints: 32 by default, 8 in the sweep service), and a
// job is about 0.9 KB of JSON, so 32 MiB holds more than 35k jobs while
// keeping a hostile body from growing the worker's memory without limit.
const maxAssignBytes = 32 << 20

// maxFrameBytes bounds the average response frame a coordinator reads from a
// worker: a piece's response may hold at most one frame per job plus its
// terminator at this size each. An outcome frame is about 1.1 KB of JSON, so
// the bound only stops a hostile worker from growing the coordinator's memory
// without limit.
const maxFrameBytes = 64 << 10

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
		a, err := decodeAssign(http.MaxBytesReader(rw, req.Body, maxAssignBytes))
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			http.Error(rw, fmt.Sprintf("dist: run request exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
			return
		case err != nil:
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
			return send(outcomeFrame(out))
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
// answers with 400 (413 past maxAssignBytes) before any job runs.
func decodeAssign(body io.Reader) (Assignment, error) {
	var f frame
	if err := json.NewDecoder(body).Decode(&f); err != nil {
		return Assignment{}, fmt.Errorf("dist: body must be a single assign frame: %w", err)
	}
	if f.Type != "assign" || f.Assign == nil {
		return Assignment{}, fmt.Errorf("dist: body must be a single assign frame, not type %q", f.Type)
	}
	return *f.Assign, f.Assign.check()
}
