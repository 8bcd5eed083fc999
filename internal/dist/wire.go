package dist

import (
	"encoding/json"
	"fmt"

	"fdip/internal/engine"
)

// The wire protocol is newline-delimited JSON frames over HTTP (one POST
// per assignment, NDJSON response). A conversation is:
//
//	coordinator -> worker:  {"type":"assign","assign":{...}}
//	worker -> coordinator:  {"type":"outcome","outcome":{...}}   (per job, completion order)
//	                        ... then exactly one of:
//	                        {"type":"done"}
//	                        {"type":"error","error":"..."}
//
// An outcome is an engine.WireOutcome (errors flattened to strings), the one
// JSON form of an outcome, so a frame encodes or decodes in one pass. It
// travels without its job: the coordinator's plan fixes the job at every
// index, and the coordinator stamps each outcome from it, so a worker is
// trusted for results only. Per-job failures are outcome frames with "error"
// set inside the outcome; a frame of type "error" is assignment-terminal and
// triggers the coordinator's retry-on-a-fresh-session path.
type frame struct {
	Type    string              `json:"type"`
	Assign  *Assignment         `json:"assign,omitempty"`
	Outcome *engine.WireOutcome `json:"outcome,omitempty"`
	Error   string              `json:"error,omitempty"`
}

// outcomeFrame is the frame a worker sends for one outcome: its wire form
// without the job.
func outcomeFrame(out engine.RunOutcome) frame {
	out.Job = engine.Job{}
	w := out.Wire()
	return frame{Type: "outcome", Outcome: &w}
}

// readOutcomes consumes one assignment's response frames from dec, emitting
// each outcome, until a done (nil) or error (non-nil) terminator. A stream
// that ends or corrupts before its terminator is a dead worker.
func readOutcomes(dec *json.Decoder, emit func(engine.RunOutcome) error) error {
	for {
		var f frame
		if err := dec.Decode(&f); err != nil {
			return fmt.Errorf("dist: worker stream ended before its terminator: %w", err)
		}
		switch f.Type {
		case "outcome":
			if f.Outcome == nil {
				return fmt.Errorf("dist: outcome frame without an outcome")
			}
			if err := emit(f.Outcome.Outcome()); err != nil {
				return err
			}
		case "done":
			return nil
		case "error":
			return fmt.Errorf("dist: worker: %s", f.Error)
		default:
			return fmt.Errorf("dist: unexpected frame type %q", f.Type)
		}
	}
}
