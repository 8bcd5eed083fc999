package engine

import (
	"encoding/json"
	"io"
	"time"

	"fdip/internal/core"
)

// WireOutcome is the one JSON form of a RunOutcome: the dist outcome frame,
// the dist checkpoint journal, the svc result stream, WriteOutcomesJSON and
// fdipd's output all carry exactly these bytes. The error flattens to a
// string, so downstream tooling gets machine-readable failures. The job is
// omitted when zero: dist frames and journal records zero it, because the
// coordinator's plan fixes every index's job, and every other form carries
// it.
//
// Codecs that embed outcomes in a larger record (frames, journal records)
// hold WireOutcome fields rather than RunOutcome ones, so encoding/json makes
// one reflective pass over the whole record; a RunOutcome field would go
// through its Marshaler methods, whose output json compacts (on encode) and
// whose input it scans again (on decode).
type WireOutcome struct {
	Job          Job         `json:"job,omitzero"`
	Index        int         `json:"index"`
	Result       core.Result `json:"result"`
	Error        string      `json:"error,omitempty"`
	Cached       bool        `json:"cached"`
	Elapsed      int64       `json:"elapsed_ns"`
	CyclesPerSec float64     `json:"cycles_per_sec,omitempty"`
}

// Wire returns the outcome's wire form.
func (o RunOutcome) Wire() WireOutcome {
	w := WireOutcome{Job: o.Job, Index: o.Index, Result: o.Result, Cached: o.Cached,
		Elapsed: int64(o.Elapsed), CyclesPerSec: o.CyclesPerSec}
	if o.Err != nil {
		w.Error = o.Err.Error()
	}
	return w
}

// Outcome converts the wire form back; a non-empty error string becomes an
// error with that message, so Err survives a round trip.
func (w *WireOutcome) Outcome() RunOutcome {
	o := RunOutcome{Job: w.Job, Index: w.Index, Result: w.Result, Cached: w.Cached,
		Elapsed: time.Duration(w.Elapsed), CyclesPerSec: w.CyclesPerSec}
	if w.Error != "" {
		o.Err = jsonError(w.Error)
	}
	return o
}

// MarshalJSON encodes the outcome's wire form.
func (o RunOutcome) MarshalJSON() ([]byte, error) { return json.Marshal(o.Wire()) }

// UnmarshalJSON decodes the outcome from its wire form.
func (o *RunOutcome) UnmarshalJSON(data []byte) error {
	var w WireOutcome
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*o = w.Outcome()
	return nil
}

type jsonError string

func (e jsonError) Error() string { return string(e) }

// WriteResultJSON writes one Result as indented JSON.
func WriteResultJSON(w io.Writer, res core.Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// WriteOutcomesJSON writes sweep outcomes as an indented JSON array of their
// wire forms — the machine-readable form of a whole sweep for downstream
// tooling.
func WriteOutcomesJSON(w io.Writer, outs []RunOutcome) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(outs)
}
