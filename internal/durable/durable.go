// Package durable is the one append-only journal the dist and svc layers
// keep: Log, an NDJSON file of records with a torn tail cut away at open and
// a per-record choice of fsync. The dist checkpoint journal and the svc queue
// journal are two record schemas over it. Both write most records unsynced
// and flush only the records whose loss would lose work or an
// acknowledgement (see their doc comments); routing every flush through Sync
// is what lets a test count them.
package durable

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// Sync flushes f's written data to stable storage. It is a variable only so
// tests can count or fail flushes; production code never reassigns it.
var Sync = (*os.File).Sync

// Log is an open append-only NDJSON file of R records, one per line. Its
// methods are safe for concurrent use.
//
// Tear rule: a record counts only as a complete line — its JSON and then a
// newline. A crash mid-append leaves a final line without its newline, and
// that line is a torn tail even when its JSON happens to be whole.
type Log[R any] struct {
	mu sync.Mutex
	f  *os.File
}

// Open opens (creating if absent) the log at path and returns its valid
// prefix: the records before the first line that is incomplete, does not
// decode into an R, or that keep refuses. keep sees each decoded record with
// its ordinal; a nil keep keeps every record. The file is truncated at the
// end of the prefix, and appends follow it. An error from keep aborts the
// open and leaves the file as it was.
func Open[R any](path string, keep func(i int, rec *R) (bool, error)) (*Log[R], []R, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*Log[R], []R, error) {
		f.Close()
		return nil, nil, err
	}
	l := &Log[R]{f: f}
	var recs []R
	end, torn := int64(0), true
	for rd := bufio.NewReader(f); ; {
		line, err := rd.ReadBytes('\n')
		if err == io.EOF {
			torn = len(line) > 0 // a line without its newline
			break
		} else if err != nil {
			return fail(err)
		}
		var rec R
		if json.Unmarshal(line, &rec) != nil {
			break
		}
		if keep != nil {
			if ok, err := keep(len(recs), &rec); err != nil {
				return fail(err)
			} else if !ok {
				break
			}
		}
		recs = append(recs, rec)
		end += int64(len(line))
	}
	// An intact file is left alone: on ext4, truncating even an empty file
	// makes its close start writeback.
	if torn {
		if err := f.Truncate(end); err != nil {
			return fail(err)
		}
	}
	return l, recs, nil
}

// Append writes rec as one line, flushing it to stable storage if sync is
// set.
func (l *Log[R]) Append(rec R, sync bool) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("durable: encode record: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Write(append(b, '\n')); err != nil || !sync {
		return err
	}
	return Sync(l.f)
}

// Close closes the log, first flushing every unsynced record if sync is set.
// Without sync nothing written is lost to a process crash (the operating
// system holds it), only to a power loss.
func (l *Log[R]) Close(sync bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if sync {
		err = Sync(l.f)
	}
	return errors.Join(err, l.f.Close())
}
