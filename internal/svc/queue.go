package svc

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"fdip/internal/durable"
)

// queueRecord is one NDJSON line of the queue journal: a submission (with its
// full request, so restart can rebuild the plan) or a terminal transition.
// Sweeps with a submit record and no terminal record are unfinished — they
// re-queue on restart, resuming from their own dist journals. Done records
// are in completion order, which restart replays finished sweeps in.
type queueRecord struct {
	Op    string         `json:"op"` // "submit" | "done" | "failed"
	ID    string         `json:"id"`
	Req   *SubmitRequest `json:"req,omitempty"`
	Error string         `json:"error,omitempty"`
}

// queueJournal is the service's durable submission log: append-only NDJSON,
// torn tails from a crash mid-append truncated away at open — the same
// discipline as the dist checkpoint journal. Submit and failed records are
// fsynced (a submission is acknowledged only after it is on disk; a failure
// is not retried on restart). A done record is written unsynced and rides on
// the next submission's fsync or on Close: losing it re-queues a finished
// sweep, which resumes behind its complete dist journal without executing
// anything.
type queueJournal struct {
	mu sync.Mutex
	f  *os.File
}

// openQueueJournal opens (or creates) the journal at path, returning the
// records that survive validation, in order. A torn final line — a crash
// between write and sync — is truncated, never parsed.
func openQueueJournal(path string) (*queueJournal, []queueRecord, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("svc: open queue journal: %w", err)
	}
	var records []queueRecord
	valid := int64(0)
	rd := bufio.NewReader(f)
	for {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			// No trailing newline (or a read error): everything past the
			// last complete line is a torn tail.
			if err != io.EOF {
				f.Close()
				return nil, nil, fmt.Errorf("svc: read queue journal: %w", err)
			}
			break
		}
		var rec queueRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			break // corrupt line: truncate from here
		}
		records = append(records, rec)
		valid += int64(len(line))
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("svc: truncate queue journal tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &queueJournal{f: f}, records, nil
}

// Append writes one record, fsyncing it unless it is a done record.
func (q *queueJournal) Append(rec queueRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, err := q.f.Write(b); err != nil {
		return fmt.Errorf("svc: append queue journal: %w", err)
	}
	if rec.Op == "done" {
		return nil
	}
	if err := durable.Sync(q.f); err != nil {
		return fmt.Errorf("svc: sync queue journal: %w", err)
	}
	return nil
}

// Close flushes any unsynced done records and closes the journal.
func (q *queueJournal) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	err := durable.Sync(q.f)
	if cerr := q.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("svc: close queue journal: %w", err)
	}
	return nil
}
