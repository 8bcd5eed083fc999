package svc

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// queueRecord is one NDJSON line of the queue journal, the service's durable
// submission log (a durable.Log, so a torn tail from a crash mid-append is
// cut away at open): a submission (with its full request, so restart can
// rebuild the plan) or a terminal transition. Sweeps with a submit record
// and no terminal record are unfinished — they re-queue on restart, resuming
// from their own dist journals. Done records are in completion order, which
// restart replays finished sweeps in.
//
// Submit and failed records are fsynced (a submission is acknowledged only
// after it is on disk; a failure is not retried on restart). A done record is
// written unsynced and rides on the next submission's fsync or on Shutdown's
// closing flush: losing it re-queues a finished sweep, which resumes behind
// its complete dist journal without executing anything.
type queueRecord struct {
	Op    string         `json:"op"` // "submit" | "done" | "failed"
	ID    string         `json:"id"`
	Req   *SubmitRequest `json:"req,omitempty"`
	Error string         `json:"error,omitempty"`
}

// sweepID formats the id of the seq-th submission.
func sweepID(seq int) string { return fmt.Sprintf("s%06d", seq) }

// idSeq returns the submission ordinal of an id Submit could have written:
// sweepID of an ordinal in [1, math.MaxInt). Submit issues nothing past that
// range, so no restored ordinal can make it wrap.
func idSeq(id string) (int, bool) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "s"))
	return n, err == nil && n > 0 && n < math.MaxInt && sweepID(n) == id
}
