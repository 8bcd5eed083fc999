package dist

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fdip/internal/engine"
)

var updateWire = flag.Bool("update", false, "rewrite the wire goldens in testdata/wire")

// wireVariants are the engine package's wire golden outcomes (every
// combination of a failed or successful, cached or fresh outcome with zero
// or non-zero CyclesPerSec), read back from its WriteOutcomesJSON golden.
func wireVariants(tb testing.TB) []engine.RunOutcome {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("..", "engine", "testdata", "wire", "outcomes.json"))
	if err != nil {
		tb.Fatal(err)
	}
	var outs []engine.RunOutcome
	if err := json.Unmarshal(b, &outs); err != nil {
		tb.Fatal(err)
	}
	return outs
}

// checkGolden compares got with testdata/wire/name, rewriting the file
// instead under -update. The goldens were recorded from the codecs that ran
// each outcome through RunOutcome's Marshaler methods, so they also pin that
// WireOutcome fields encode the same bytes; rewrite them only for an
// intended format change.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "wire", name)
	if *updateWire {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing wire golden (run with -update to record): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s changed:\ngot  %s\nwant %s", path, got, want)
	}
}

// requireSameWire fails unless got and want hold the same outcomes in the
// same order, compared in their wire form (an error by its message).
func requireSameWire(t *testing.T, label string, got, want []engine.RunOutcome) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outcomes, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].Wire(), want[i].Wire()) {
			t.Fatalf("%s: outcome %d is %+v, want %+v", label, i, got[i].Wire(), want[i].Wire())
		}
	}
}

// withoutJobs returns outs with every job zeroed: what frames and journal
// records carry.
func withoutJobs(outs []engine.RunOutcome) []engine.RunOutcome {
	outs = append([]engine.RunOutcome(nil), outs...)
	for i := range outs {
		outs[i].Job = engine.Job{}
	}
	return outs
}

// requireNoJobKey fails if an outcome in the NDJSON lines of b — a frame's
// "outcome" or a journal record's "outcomes" — has a "job" key.
func requireNoJobKey(t *testing.T, b []byte) {
	t.Helper()
	for _, line := range bytes.Split(bytes.TrimSpace(b), []byte("\n")) {
		var rec struct {
			Outcome  map[string]json.RawMessage   `json:"outcome"`
			Outcomes []map[string]json.RawMessage `json:"outcomes"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		for _, out := range append(rec.Outcomes, rec.Outcome) {
			if _, ok := out["job"]; ok {
				t.Errorf("an outcome carries its job: %s", line)
			}
		}
	}
}

// TestOutcomeFrameGolden pins the bytes a worker streams for each wire
// variant and its done terminator — no frame carries a job — and that
// readOutcomes decodes them back to the same outcomes without their jobs.
func TestOutcomeFrameGolden(t *testing.T) {
	outs := wireVariants(t)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, out := range outs {
		if err := enc.Encode(outcomeFrame(out)); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Encode(frame{Type: "done"}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "outcome_frames.ndjson", buf.Bytes())
	requireNoJobKey(t, buf.Bytes())

	var got []engine.RunOutcome
	if err := readOutcomes(json.NewDecoder(&buf), func(out engine.RunOutcome) error {
		got = append(got, out)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	requireSameWire(t, "decoded frames", got, withoutJobs(outs))
}

// TestJournalGolden pins the bytes of a checkpoint journal holding its
// header and one range record of every wire variant — no record carries a
// job — and that reopening it replays the same outcomes without their jobs.
func TestJournalGolden(t *testing.T) {
	outs := wireVariants(t)
	path := filepath.Join(t.TempDir(), "journal")
	j, _, err := OpenJournal(path, 0xfd1b, len(outs), len(outs))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(0, outs); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "journal.ndjson", b)
	requireNoJobKey(t, b)

	j, completed, err := OpenJournal(path, 0xfd1b, len(outs), len(outs))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	requireSameWire(t, "replayed range", completed[0], withoutJobs(outs))
}

// BenchmarkOutcomeFrame measures one outcome frame through the worker's
// encoder and through readOutcomes (with its done terminator and a fresh
// decoder, as one response stream).
func BenchmarkOutcomeFrame(b *testing.B) {
	out := wireVariants(b)[0]
	b.Run("encode", func(b *testing.B) {
		enc := json.NewEncoder(io.Discard)
		b.ReportAllocs()
		for b.Loop() {
			if err := enc.Encode(outcomeFrame(out)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		if err := enc.Encode(outcomeFrame(out)); err != nil {
			b.Fatal(err)
		}
		if err := enc.Encode(frame{Type: "done"}); err != nil {
			b.Fatal(err)
		}
		raw := buf.Bytes()
		b.ReportAllocs()
		for b.Loop() {
			if err := readOutcomes(json.NewDecoder(bytes.NewReader(raw)), func(engine.RunOutcome) error { return nil }); err != nil {
				b.Fatal(err)
			}
		}
	})
}
