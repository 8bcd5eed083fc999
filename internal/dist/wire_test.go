package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"fdip/internal/core"
	"fdip/internal/engine"
)

// FuzzReadOutcomes feeds arbitrary bytes to the coordinator's reader of a
// worker's response stream. Whatever arrives, readOutcomes must not panic,
// every outcome it emits must be the outcome of the outcome frame it just
// consumed, and it may return nil only right after consuming a done frame.
// Each consumed frame is cut out of the input at the decoder's positions and
// checked on its own. The seed corpus (testdata/fuzz/FuzzReadOutcomes)
// covers done, error, outcome, torn and unknown frames, and two golden
// outcome frames without jobs, as a worker sends them;
// TestReadOutcomesCorpus pins its known answers.
func FuzzReadOutcomes(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		var prev int64
		// consumed decodes the frame readOutcomes read last: the bytes
		// between the previous frame's end and the decoder's offset.
		consumed := func() (frame, []byte) {
			end := dec.InputOffset()
			raw := data[prev:end]
			prev = end
			var fr frame
			if err := json.Unmarshal(raw, &fr); err != nil {
				t.Fatalf("readOutcomes acted on bytes that are no frame: %q: %v", raw, err)
			}
			return fr, raw
		}
		emitted := 0
		err := readOutcomes(dec, func(out engine.RunOutcome) error {
			emitted++
			fr, raw := consumed()
			if fr.Type != "outcome" || fr.Outcome == nil {
				t.Fatalf("outcome %d emitted from a frame that is not an outcome frame: %q", emitted, raw)
			}
			got, _ := json.Marshal(out)
			want, _ := json.Marshal(fr.Outcome)
			if !bytes.Equal(got, want) {
				t.Fatalf("outcome %d emitted as %s, its frame holds %s", emitted, got, want)
			}
			return nil
		})
		if err == nil {
			if fr, raw := consumed(); fr.Type != "done" {
				t.Fatalf("readOutcomes returned nil after %d outcomes, and the frame it ended on is no done frame: %q", emitted, raw)
			}
		}

		// An emit failure ends the read with that failure.
		if emitted > 0 {
			stop := errors.New("consumer stopped")
			err := readOutcomes(json.NewDecoder(bytes.NewReader(data)), func(engine.RunOutcome) error { return stop })
			if !errors.Is(err, stop) {
				t.Fatalf("readOutcomes after a failing emit = %v, want the emit error", err)
			}
		}
	})
}

// TestReadOutcomesCorpus pins what readOutcomes makes of each committed
// FuzzReadOutcomes seed: how many outcomes it emits, and whether the stream
// ends cleanly.
func TestReadOutcomesCorpus(t *testing.T) {
	want := map[string]struct {
		emitted int
		ok      bool
	}{
		"done":     {0, true},
		"error":    {0, false}, // an error terminator fails the run
		"mistyped": {0, false}, // a done frame that does not decode is no done frame
		"outcome":  {2, true},
		"nojob":    {2, true},  // two outcome frames as a worker sends them: without jobs
		"torn":     {1, false}, // the stream ends inside its second frame
		"unknown":  {1, false}, // an assign frame cannot come back from a worker
	}
	seeds := readSeeds(t, "FuzzReadOutcomes")
	if len(seeds) != len(want) {
		t.Errorf("corpus holds %d seeds, the table %d", len(seeds), len(want))
	}
	for name, data := range seeds {
		w, ok := want[name]
		if !ok {
			t.Errorf("seed %s has no known answer", name)
			continue
		}
		emitted := 0
		err := readOutcomes(json.NewDecoder(strings.NewReader(data)), func(engine.RunOutcome) error {
			emitted++
			return nil
		})
		if emitted != w.emitted || (err == nil) != w.ok {
			t.Errorf("seed %s: emitted %d outcomes, err %v; want %d outcomes, clean end %v", name, emitted, err, w.emitted, w.ok)
		}
	}
}

// readSeeds returns a fuzz target's committed seed corpus by file name.
func readSeeds(t *testing.T, target string) map[string]string {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// A seed file is the "go test fuzz v1" header and one []byte("...")
		// line.
		_, line, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("seed %s: %v", e.Name(), err)
		}
		seeds[e.Name()] = data
	}
	return seeds
}

// FuzzWorkerAssign feeds arbitrary bytes to a worker's decode of its run
// request. decodeAssign must not panic, and may accept only an assignment
// whose sparse Indices table, if any, matches its Jobs. Bytes it refuses must
// get a 400 from the worker's handler, and no job may run; accepted
// bodies are not run, so the fuzz body simulates nothing. The seed corpus
// (testdata/fuzz/FuzzWorkerAssign) covers valid dense and sparse
// assignments, a torn body, a frame of the wrong type and a sparse table of
// the wrong length; TestWorkerAssignCorpus pins its known answers.
func FuzzWorkerAssign(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := decodeAssign(bytes.NewReader(data))
		if err == nil {
			if a.Indices != nil && len(a.Indices) != len(a.Jobs) {
				t.Fatalf("accepted %d indices for %d jobs", len(a.Indices), len(a.Jobs))
			}
			return
		}
		w := NewWorker(1)
		rec := httptest.NewRecorder()
		w.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(data)))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("refused body (%v) answered %d, want 400", err, rec.Code)
		}
		if st := w.eng.Stats(); st != (engine.Stats{}) {
			t.Fatalf("refused body ran jobs: %+v", st)
		}
	})
}

// TestWorkerRefusesOversizedBody: a run request past maxAssignBytes — here
// one job whose name alone is that long — gets 413 and runs nothing. Without
// the bound the worker decoded any body whole (a 256 MiB one grew its heap by
// gigabytes) and then ran its job.
func TestWorkerRefusesOversizedBody(t *testing.T) {
	cfg := core.DefaultConfig()
	a := Assignment{Jobs: []engine.Job{{Name: strings.Repeat("x", maxAssignBytes), Workload: "gcc", Config: cfg}}, Instrs: 2_000}
	body, err := json.Marshal(frame{Type: "assign", Assign: &a})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(1)
	rec := httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("a %d-byte body answered %d, want 413", len(body), rec.Code)
	}
	if strings.Contains(rec.Body.String(), `"outcome"`) {
		t.Error("the refused body streamed an outcome")
	}
	if st := w.eng.Stats(); st != (engine.Stats{}) {
		t.Errorf("a refused body ran jobs: %+v", st)
	}
}

// TestWorkerAssignCorpus pins whether decodeAssign accepts each committed
// FuzzWorkerAssign seed, and how many jobs an accepted one carries.
func TestWorkerAssignCorpus(t *testing.T) {
	want := map[string]struct {
		jobs int
		ok   bool
	}{
		"dense":      {2, true},
		"sparse":     {2, true},
		"torn":       {0, false}, // the body ends inside the frame
		"wrongtype":  {0, false}, // an outcome frame is no assignment
		"mismatched": {0, false}, // three indices for two jobs
	}
	seeds := readSeeds(t, "FuzzWorkerAssign")
	if len(seeds) != len(want) {
		t.Errorf("corpus holds %d seeds, the table %d", len(seeds), len(want))
	}
	for name, data := range seeds {
		w, ok := want[name]
		if !ok {
			t.Errorf("seed %s has no known answer", name)
			continue
		}
		a, err := decodeAssign(strings.NewReader(data))
		if (err == nil) != w.ok || (err == nil && len(a.Jobs) != w.jobs) {
			t.Errorf("seed %s: %d jobs, err %v; want %d jobs, accepted %v", name, len(a.Jobs), err, w.jobs, w.ok)
		}
	}
}

// TestCoordinatorBoundsWorkerResponse: a worker that streams one 64 MiB
// frame fails its piece once the response passes the piece's bound — the
// stream ends before its terminator, a dead worker — and the coordinator's
// heap grows by a small fraction of the frame. Without the bound the decoder
// buffered the whole frame.
func TestCoordinatorBoundsWorkerResponse(t *testing.T) {
	const frameBytes = 64 << 20
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		chunk := bytes.Repeat([]byte("x"), 64<<10)
		if _, err := io.WriteString(rw, `{"type":"outcome","outcome":{"index":0,"error":"`); err != nil {
			return
		}
		for n := 0; n < frameBytes; n += len(chunk) {
			if _, err := rw.Write(chunk); err != nil {
				return
			}
		}
		io.WriteString(rw, "\"}}\n{\"type\":\"done\"}\n")
	}))
	defer srv.Close()
	p := engine.FromJobs(engine.Job{Workload: "gcc", Config: core.DefaultConfig()})
	c := New(Options{Dialer: HTTP{URL: srv.URL}})

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := collect(context.Background(), c, p)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "before its terminator") {
		t.Fatalf("a 64 MiB frame: err = %v, want a stream that ended before its terminator", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Errorf("reading the frame allocated %d MiB", grew>>20)
	}
}
