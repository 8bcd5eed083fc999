package dist

import (
	"fmt"

	"fdip/internal/durable"
	"fdip/internal/engine"
)

// The journal is the coordinator's checkpoint: an append-only NDJSON file
// whose first record is a header binding it to one sweep fingerprint (the
// plan's shape and every point's resolved job, the chunking and the budget),
// followed by one record per completed range carrying the range's outcomes.
// A range's outcomes carry no jobs: the fingerprint fixes the job at every
// index, and the coordinator stamps each replayed outcome from its plan. A
// range is journaled only after every one of its outcomes arrived and
// validated, so the journal never contains partial ranges — resume replays
// completed ranges verbatim and re-executes everything else, which is exactly
// the at-least-once-per-range / exactly-once-per-delivered-outcome semantics
// the merge contract needs.
//
// Durability: only a range that a worker executed is fsynced (Commit), and
// before the consumer sees it — losing it would lose work. The header and a
// range served entirely from the shared result cache are written unsynced
// (the range after the consumer has seen it): both are re-derivable (a lost
// header restarts the journal, a lost cache-served range is served from the
// cache again on resume), and both ride on the file's next fsync. A process
// crash loses nothing written; only a power loss can drop unsynced records.
//
// Crash tolerance: the journal is a durable.Log, so a coordinator killed
// mid-append leaves a torn final line that OpenJournal cuts away, with every
// record after the first one that does not validate, sacrificing (at most)
// the final range's work, never correctness. A range record validates only
// if it is a range the plan could have produced: a start on a chunk boundary
// inside the plan, seen for the first time, with exactly that range's
// outcomes in enumeration order. Anything else is a tear point, so replay can
// never deliver a point twice or outside the plan.
type journalRecord struct {
	Type string `json:"type"` // "header" | "range"

	// Header fields: the identity of the sweep this journal checkpoints.
	Fingerprint uint64 `json:"fingerprint,omitempty"`
	Points      int    `json:"points,omitempty"`
	Chunk       int    `json:"chunk,omitempty"`

	// Range fields: the range's outcomes, each without its job.
	Start    int                  `json:"start"`
	Count    int                  `json:"count"`
	Outcomes []engine.WireOutcome `json:"outcomes,omitempty"`
}

// Journal is an open checkpoint file positioned for appends.
type Journal struct {
	log *durable.Log[journalRecord]
}

// OpenJournal opens (creating if absent) the journal at path for a sweep
// with the given identity, returning the completed ranges it already holds,
// keyed by range start; their outcomes carry no jobs. A journal written by a
// different plan, chunking, or budget is rejected — replaying someone else's
// outcomes would silently corrupt the sweep. A torn tail (crash mid-append)
// is truncated away.
func OpenJournal(path string, fingerprint uint64, points, chunk int) (*Journal, map[int][]engine.RunOutcome, error) {
	completed := make(map[int][]engine.RunOutcome)
	log, recs, err := durable.Open(path, func(i int, rec *journalRecord) (bool, error) {
		if i == 0 {
			if rec.Type != "header" || rec.Fingerprint != fingerprint || rec.Points != points || rec.Chunk != chunk {
				return false, fmt.Errorf("%s belongs to a different sweep (fingerprint %#x points %d chunk %d; want %#x/%d/%d) — remove it or pick another path",
					path, rec.Fingerprint, rec.Points, rec.Chunk, fingerprint, points, chunk)
			}
			return true, nil
		}
		// A record that is not a range of this plan marks the tear point;
		// everything after it is suspect and gets re-executed rather than
		// trusted.
		if !rec.replayable(points, chunk, completed) {
			return false, nil
		}
		outs := make([]engine.RunOutcome, len(rec.Outcomes))
		for k := range rec.Outcomes {
			outs[k] = rec.Outcomes[k].Outcome()
		}
		completed[rec.Start] = outs
		return true, nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("dist: journal: %w", err)
	}
	// An empty prefix is a fresh journal or a torn header (it is written
	// unsynced, so a power loss before the first range commit can tear it):
	// either way no range can follow, so stamp the header and start over.
	if len(recs) == 0 {
		if err := log.Append(journalRecord{Type: "header", Fingerprint: fingerprint, Points: points, Chunk: chunk}, false); err != nil {
			log.Close(false)
			return nil, nil, fmt.Errorf("dist: journal: %w", err)
		}
	}
	return &Journal{log: log}, completed, nil
}

// replayable reports whether rec is a range record a sweep of points points
// chunked at chunk could have committed, and the first for its start.
func (rec *journalRecord) replayable(points, chunk int, completed map[int][]engine.RunOutcome) bool {
	if rec.Type != "range" || chunk <= 0 || rec.Start < 0 || rec.Start >= points || rec.Start%chunk != 0 {
		return false
	}
	if _, dup := completed[rec.Start]; dup {
		return false
	}
	if rec.Count != min(chunk, points-rec.Start) || len(rec.Outcomes) != rec.Count {
		return false
	}
	for i, out := range rec.Outcomes {
		if out.Index != rec.Start+i {
			return false
		}
	}
	return true
}

// Commit durably records one completed range. The fsync is what upgrades
// "yielded to the consumer" into "survives a power loss": an executed range
// is only journaled (and only skipped on resume) once its bytes are on disk.
func (j *Journal) Commit(start int, outs []engine.RunOutcome) error {
	return j.append(start, outs, true)
}

// note records one completed range without syncing. It is for ranges that no
// worker executed: every outcome came from the shared result cache, so a lost
// record costs a cache lookup on resume, not work.
func (j *Journal) note(start int, outs []engine.RunOutcome) error {
	return j.append(start, outs, false)
}

func (j *Journal) append(start int, outs []engine.RunOutcome, sync bool) error {
	wire := make([]engine.WireOutcome, len(outs))
	for i, out := range outs {
		out.Job = engine.Job{} // the fingerprint fixes it
		wire[i] = out.Wire()
	}
	return j.log.Append(journalRecord{Type: "range", Start: start, Count: len(outs), Outcomes: wire}, sync)
}

// Close closes the journal file. It does not fsync: unsynced records are
// already in the operating system's cache, which a process crash does not
// lose.
func (j *Journal) Close() error {
	return j.log.Close(false)
}
