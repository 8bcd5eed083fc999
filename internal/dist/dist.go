// Package dist shards Plans across worker processes: a coordinator splits a
// plan's enumeration order into contiguous index ranges, cuts each range
// into pieces that idle worker sessions take first-in first-out over a
// newline-delimited JSON wire protocol, and merges the pieces back into
// whole ranges and the ranges into the single-process stream contract
// (index-tagged RunOutcomes feeding stats.Collector). A checkpoint journal
// makes sweeps resumable: completed ranges are persisted as they finish and
// replayed instead of re-executed after a coordinator restart, and a dead
// worker's piece is re-dialed and re-run on a fresh session.
//
// The coordinator owns job identity. Its plan fixes the job at every index,
// so outcome frames and journal records carry an index and a result but no
// job, and the coordinator stamps each outcome — fresh or replayed — with
// the plan's resolved job; the journal's fingerprint covers every job.
//
// The invariant the whole package is built around is bit-identity: every job
// is deterministic in its (params, config, seed) key, enumeration order is
// fixed by the Plan, and outcomes carry their enumeration index, so an N-way
// sharded sweep — including one interrupted by worker kills and coordinator
// restarts — reassembles into exactly the outcomes a single process would
// have produced.
package dist

import (
	"context"
	"fmt"

	"fdip/internal/engine"
)

// Assignment is one worker request: jobs from a plan's enumeration order,
// shipped as the plan enumerates them (a Plan itself — closures over axes —
// cannot cross a process boundary). In the dense form Jobs[i] is
// enumeration index Start+i; a sparse assignment (Indices set) carries an
// explicit global index per job. A Coordinator always ships sparse pieces:
// some of one journaled range's cache misses, with Start naming the range.
// Workers re-tag outcome indices into the global space either way, and
// answer with outcomes that carry no job: the jobs travel one way only.
type Assignment struct {
	// Start is the enumeration index of Jobs[0] (dense form); in a
	// coordinator's sparse piece it is the start of the journaled range the
	// piece belongs to.
	Start int `json:"start"`
	// Jobs are the resolved simulation points, in enumeration order.
	Jobs []engine.Job `json:"jobs"`
	// Indices, when set, gives Jobs[i] the global enumeration index
	// Indices[i] (sparse form; len must equal len(Jobs), ascending). Nil
	// means the dense contiguous interpretation.
	Indices []int `json:"indices,omitempty"`
	// Instrs, when non-zero, is the committed-instruction budget the worker
	// applies to every job (engine.WithBudget); zero leaves each job's
	// own config untouched.
	Instrs uint64 `json:"instrs,omitempty"`
}

// check rejects an assignment no worker can run: a sparse Indices table
// whose length differs from Jobs.
func (a Assignment) check() error {
	if a.Indices != nil && len(a.Indices) != len(a.Jobs) {
		return fmt.Errorf("dist: sparse assignment with %d indices for %d jobs", len(a.Indices), len(a.Jobs))
	}
	return nil
}

// globalIndex returns Jobs[i]'s index in the plan's enumeration space.
func (a Assignment) globalIndex(i int) int {
	if a.Indices != nil {
		return a.Indices[i]
	}
	return a.Start + i
}

// Session is one live worker connection. Run executes one assignment,
// calling emit for every outcome of it (in the worker's completion
// order, indices re-tagged into the plan's global enumeration space), and
// returns nil only when the whole assignment succeeded at the protocol level
// (per-job simulation failures travel inside outcomes as Err, exactly like
// engine.Stream). A non-nil error marks the session dead: the coordinator
// closes it and retries the piece on a freshly dialed one.
type Session interface {
	Run(ctx context.Context, a Assignment, emit func(engine.RunOutcome) error) error
	Close() error
}

// Dialer mints worker sessions. The coordinator dials lazily — one session
// per shard slot, redialed after failures — so a Dialer is also the retry
// policy's supply of replacement workers.
type Dialer interface {
	Dial(ctx context.Context) (Session, error)
}

// Slotted is implemented by a Dialer that knows how many simulations one of
// its workers runs at once. A coordinator never cuts a range into pieces
// smaller than that, so spreading a range across shards cannot leave a
// worker's slots idle; a Dialer that does not implement Slotted, or reports
// 0, gets whole ranges.
type Slotted interface {
	Slots() int
}

// dialerSlots is d's worker slot count, 0 when it does not know.
func dialerSlots(d Dialer) int {
	if s, ok := d.(Slotted); ok {
		return s.Slots()
	}
	return 0
}
