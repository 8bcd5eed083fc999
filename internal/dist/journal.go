package dist

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"fdip/internal/durable"
	"fdip/internal/engine"
)

// The journal is the coordinator's checkpoint: an append-only NDJSON file
// whose first record is a header binding it to one (plan, chunking, budget)
// fingerprint, followed by one record per completed range carrying the
// range's outcomes. A range is journaled only after every one of its
// outcomes arrived and validated, so the journal never contains partial
// ranges — resume replays completed ranges verbatim and re-executes
// everything else, which is exactly the at-least-once-per-range /
// exactly-once-per-delivered-outcome semantics the merge contract needs.
//
// Durability: only a range that a worker executed is fsynced (Commit), and
// before the consumer sees it — losing it would lose work. The header and a
// range served entirely from the shared result cache are written unsynced
// (the range after the consumer has seen it): both are re-derivable (a lost
// header restarts the journal, a lost cache-served range is served from the
// cache again on resume), and both ride on the file's next fsync. A process
// crash loses nothing written; only a power loss can drop unsynced records.
//
// Crash tolerance: a coordinator killed mid-append leaves a torn final line;
// OpenJournal truncates the tail back to the last record that decodes and
// validates, sacrificing (at most) the final range's work, never correctness.
// A record validates only if it is a range the plan could have produced: a
// start on a chunk boundary inside the plan, seen for the first time, with
// exactly that range's outcomes in enumeration order. Anything else is a
// tear point, so replay can never deliver a point twice or outside the plan.
type journalRecord struct {
	Type string `json:"type"` // "header" | "range"

	// Header fields: the identity of the sweep this journal checkpoints.
	Fingerprint uint64 `json:"fingerprint,omitempty"`
	Points      int    `json:"points,omitempty"`
	Chunk       int    `json:"chunk,omitempty"`

	// Range fields.
	Start    int                 `json:"start"`
	Count    int                 `json:"count"`
	Outcomes []engine.RunOutcome `json:"outcomes,omitempty"`
}

// Journal is an open checkpoint file positioned for appends.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	enc     *json.Encoder
	offsets map[int]int64 // replayed range start → its record's file offset
}

// OpenJournal opens (creating if absent) the journal at path for a sweep
// with the given identity, returning the completed ranges it already holds,
// keyed by range start. A journal written by a different plan, chunking, or
// budget is rejected — replaying someone else's outcomes would silently
// corrupt the sweep. A torn tail (crash mid-append) is truncated away.
func OpenJournal(path string, fingerprint uint64, points, chunk int) (*Journal, map[int][]engine.RunOutcome, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("dist: journal: %w", err)
	}
	j := &Journal{f: f, enc: json.NewEncoder(f), offsets: make(map[int]int64)}
	completed := make(map[int][]engine.RunOutcome)

	dec := json.NewDecoder(f)
	var hdr journalRecord
	switch err := dec.Decode(&hdr); {
	case err == io.EOF:
		// Fresh journal: stamp the header and start appending.
		if err := j.append(journalRecord{Type: "header", Fingerprint: fingerprint, Points: points, Chunk: chunk}, false); err != nil {
			f.Close()
			return nil, nil, err
		}
		return j, completed, nil
	case err != nil:
		// The header itself is torn (it is written unsynced, so a power
		// loss before the first range commit can tear it): no range can
		// follow an unrecoverable header, start over.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("dist: journal: reset torn header: %w", err)
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := j.append(journalRecord{Type: "header", Fingerprint: fingerprint, Points: points, Chunk: chunk}, false); err != nil {
			f.Close()
			return nil, nil, err
		}
		return j, completed, nil
	}
	if hdr.Type != "header" || hdr.Fingerprint != fingerprint || hdr.Points != points || hdr.Chunk != chunk {
		f.Close()
		return nil, nil, fmt.Errorf("dist: journal %s belongs to a different sweep (fingerprint %#x points %d chunk %d; want %#x/%d/%d) — remove it or pick another path",
			path, hdr.Fingerprint, hdr.Points, hdr.Chunk, fingerprint, points, chunk)
	}

	good := dec.InputOffset()
	torn := false
	for {
		var rec journalRecord
		err := dec.Decode(&rec)
		if err == io.EOF {
			break
		}
		// A record that fails to decode — or decodes but is not a range
		// of this plan — marks the tear point; everything after it is
		// suspect and gets re-executed rather than trusted.
		if err != nil || !rec.replayable(points, chunk, completed) {
			torn = true
			break
		}
		completed[rec.Start] = rec.Outcomes
		j.offsets[rec.Start] = good
		good = dec.InputOffset()
	}
	if torn {
		if err := j.truncate(good); err != nil {
			f.Close()
			return nil, nil, err
		}
	} else if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, err
	}
	return j, completed, nil
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

// truncate cuts the file at off, the tear point, and positions it for
// appends.
func (j *Journal) truncate(off int64) error {
	if err := j.f.Truncate(off); err != nil {
		return fmt.Errorf("dist: journal: truncate torn tail: %w", err)
	}
	if _, err := j.f.Seek(0, io.SeekEnd); err != nil {
		return err
	}
	// Truncation may have cut the last good record's trailing newline;
	// keep the file one-record-per-line for human eyes (the decoder
	// doesn't care either way).
	_, err := j.f.WriteString("\n")
	return err
}

// tear makes the record of replayed range start the tear point: the file
// is truncated before it, and it and every range recorded after it leave
// completed, to be executed again.
func (j *Journal) tear(start int, completed map[int][]engine.RunOutcome) error {
	off := j.offsets[start]
	for s, o := range j.offsets {
		if o >= off {
			delete(completed, s)
			delete(j.offsets, s)
		}
	}
	return j.truncate(off)
}

// Commit durably records one completed range. The fsync is what upgrades
// "yielded to the consumer" into "survives a power loss": an executed range
// is only journaled (and only skipped on resume) once its bytes are on disk.
func (j *Journal) Commit(start int, outs []engine.RunOutcome) error {
	return j.append(journalRecord{Type: "range", Start: start, Count: len(outs), Outcomes: outs}, true)
}

// note records one completed range without syncing. It is for ranges that no
// worker executed: every outcome came from the shared result cache, so a lost
// record costs a cache lookup on resume, not work.
func (j *Journal) note(start int, outs []engine.RunOutcome) error {
	return j.append(journalRecord{Type: "range", Start: start, Count: len(outs), Outcomes: outs}, false)
}

// append writes one record, fsyncing it if sync is set.
func (j *Journal) append(rec journalRecord, sync bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.enc.Encode(rec); err != nil {
		return fmt.Errorf("dist: journal: append %s record: %w", rec.Type, err)
	}
	if !sync {
		return nil
	}
	if err := durable.Sync(j.f); err != nil {
		return fmt.Errorf("dist: journal: sync: %w", err)
	}
	return nil
}

// Close closes the journal file. It does not fsync: unsynced records are
// already in the operating system's cache, which a process crash does not
// lose.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
