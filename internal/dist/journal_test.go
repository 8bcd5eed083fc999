package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fdip/internal/core"
	"fdip/internal/durable"
	"fdip/internal/engine"
	"fdip/internal/workloads"
)

// synthRange fabricates a committed range's outcomes (no simulation needed
// to test journal mechanics). They carry no job, as a journal's do.
func synthRange(start, count int) []engine.RunOutcome {
	outs := make([]engine.RunOutcome, count)
	for i := range outs {
		outs[i] = engine.RunOutcome{
			Index:  start + i,
			Result: core.Result{Prefetcher: "none", Cycles: int64(1000 + start + i), IPC: 1.5},
		}
	}
	return outs
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, completed, err := OpenJournal(path, 42, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(completed) != 0 {
		t.Fatalf("fresh journal reports %d completed ranges", len(completed))
	}
	r0, r4 := synthRange(0, 2), synthRange(4, 2)
	if err := j.Commit(0, r0); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(4, r4); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, completed, err = OpenJournal(path, 42, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(completed) != 2 {
		t.Fatalf("reopened journal holds %d ranges, want 2", len(completed))
	}
	for start, want := range map[int][]engine.RunOutcome{0: r0, 4: r4} {
		got, ok := completed[start]
		if !ok {
			t.Fatalf("range %d missing after reopen", start)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("range %d outcomes drifted through the journal:\ngot  %+v\nwant %+v", start, got, want)
		}
	}
}

func TestJournalRejectsForeignSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _, err := OpenJournal(path, 42, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, _, err := OpenJournal(path, 43, 8, 2); err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Errorf("journal with fingerprint 42 opened under 43: err = %v", err)
	}
	if _, _, err := OpenJournal(path, 42, 8, 4); err == nil {
		t.Error("journal chunked at 2 opened under chunk 4 (range boundaries would not line up)")
	}
}

// TestJournalTornTailTruncated: a crash mid-append leaves a final line
// without its newline; reopening must recover every complete record, drop
// the torn one, and leave the file appendable. A record is complete only
// with its newline, so a whole range record that lacks it is torn too.
func TestJournalTornTailTruncated(t *testing.T) {
	var outs []engine.WireOutcome
	for _, out := range synthRange(4, 2) {
		outs = append(outs, out.Wire())
	}
	whole, err := json.Marshal(journalRecord{Type: "range", Start: 4, Count: 2, Outcomes: outs})
	if err != nil {
		t.Fatal(err)
	}
	for name, tail := range map[string]string{
		"partial record":      `{"type":"range","start":4,"count":2,"outco`,
		"record sans newline": string(whole),
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j")
			j, _, err := OpenJournal(path, 7, 8, 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Commit(0, synthRange(0, 2)); err != nil {
				t.Fatal(err)
			}
			if err := j.Commit(2, synthRange(2, 2)); err != nil {
				t.Fatal(err)
			}
			j.Close()

			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(tail); err != nil {
				t.Fatal(err)
			}
			f.Close()

			j2, completed, err := OpenJournal(path, 7, 8, 2)
			if err != nil {
				t.Fatalf("reopen after torn append: %v", err)
			}
			if len(completed) != 2 {
				t.Fatalf("recovered %d ranges, want 2 (torn range 4 must be dropped, ranges 0 and 2 kept)", len(completed))
			}
			if _, ok := completed[4]; ok {
				t.Fatal("torn range 4 was trusted")
			}
			// The journal must still accept appends after truncation.
			if err := j2.Commit(4, synthRange(4, 2)); err != nil {
				t.Fatal(err)
			}
			j2.Close()
			_, completed, err = OpenJournal(path, 7, 8, 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(completed) != 3 {
				t.Fatalf("post-recovery journal holds %d ranges, want 3", len(completed))
			}
		})
	}
}

// TestJournalPreventsReexecution is the checkpoint/resume satellite's core
// assertion, at the coordinator level with an instrumented dialer: a killed
// run's committed ranges are never re-executed on resume, and its incomplete
// ranges are never lost.
func TestJournalPreventsReexecution(t *testing.T) {
	p := testPlan()
	journal := filepath.Join(t.TempDir(), "j")
	opts := func(d Dialer) Options {
		return Options{Dialer: d, Shards: 1, ChunkPoints: 2, Journal: journal}
	}

	// Run 1 consumes one range then dies.
	run1 := newChaosDialer(Loopback{Workers: 2}, 0)
	for out, err := range New(opts(run1)).Stream(context.Background(), p) {
		if err != nil || out.Err != nil {
			t.Fatalf("run 1: %v / %v", err, out.Err)
		}
		if out.Index >= 1 {
			break
		}
	}

	// Run 2 finishes. Range 0 must come from the journal, every other range
	// must execute, and no point may be lost or doubled.
	run2 := newChaosDialer(Loopback{Workers: 2}, 0)
	seen := make([]bool, p.Points())
	for out, err := range New(opts(run2)).Stream(context.Background(), p) {
		if err != nil || out.Err != nil {
			t.Fatalf("run 2: %v / %v", err, out.Err)
		}
		if seen[out.Index] {
			t.Fatalf("point %d delivered twice on resume", out.Index)
		}
		seen[out.Index] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Errorf("point %d lost across the restart", i)
		}
	}
	executed := run2.executedStarts()
	for _, start := range executed {
		if start == 0 {
			t.Errorf("journaled range 0 was re-executed on resume (executed: %v)", executed)
		}
	}
	if len(executed) != 2 {
		t.Errorf("resume executed ranges %v; want the two non-journaled ranges [2 4]", executed)
	}
}

// TestJournalRejectsRangesOutsideThePlan: a record is replayed only if it is
// a range the plan's chunking could have committed, the first for its start,
// with that range's outcomes in enumeration order. The first record that is
// not becomes the tear point: it and everything after it are dropped, and
// the records before it survive.
func TestJournalRejectsRangesOutsideThePlan(t *testing.T) {
	const points, chunk = 7, 2
	reindex := func(outs []engine.RunOutcome, idx ...int) []engine.RunOutcome {
		for i := range outs {
			outs[i].Index = idx[i]
		}
		return outs
	}
	for _, tc := range []struct {
		name  string
		start int
		outs  []engine.RunOutcome
		ok    bool
	}{
		{"last range short", 6, synthRange(6, 1), true},
		{"unaligned start", 1, synthRange(1, 2), false},
		{"start past the plan", 8, synthRange(8, 2), false},
		{"negative start", -2, synthRange(-2, 2), false},
		{"short range", 4, synthRange(4, 1), false},
		{"long last range", 6, synthRange(6, 2), false},
		{"indices outside the range", 4, reindex(synthRange(4, 2), 70, 71), false},
		{"indices out of order", 4, reindex(synthRange(4, 2), 5, 4), false},
		{"repeated start", 0, synthRange(0, 2), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j")
			j, _, err := OpenJournal(path, 1, points, chunk)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range []struct {
				start int
				outs  []engine.RunOutcome
			}{{0, synthRange(0, 2)}, {tc.start, tc.outs}, {2, synthRange(2, 2)}} {
				if err := j.Commit(rec.start, rec.outs); err != nil {
					t.Fatal(err)
				}
			}
			j.Close()
			j, completed, err := OpenJournal(path, 1, points, chunk)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			want := []int{0}
			if tc.ok {
				want = []int{0, 2, tc.start}
			}
			if len(completed) != len(want) {
				t.Fatalf("replayed %d ranges, want %v", len(completed), want)
			}
			for _, s := range want {
				if _, ok := completed[s]; !ok {
					t.Errorf("range %d not replayed; want %v", s, want)
				}
			}
		})
	}
}

// journalPlanRange commits outs as range start of plan p's journal under
// coordinator c, as a previous run of some other writer would have.
func journalPlanRange(t *testing.T, c *Coordinator, p *engine.Plan, start int, outs []engine.RunOutcome) {
	t.Helper()
	j, _, err := OpenJournal(c.opts.Journal, c.fingerprint(p), p.Points(), c.opts.ChunkPoints)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(start, outs); err != nil {
		t.Fatal(err)
	}
	j.Close()
}

// TestJournalMisalignedRangeNotReplayed: a record at start 1 of a 6-point
// plan chunked at 2 claims points 1 and 2, which straddle ranges 0 and 2.
// Replaying it delivered both points twice — once from the journal, once
// when ranges 0 and 2 executed.
func TestJournalMisalignedRangeNotReplayed(t *testing.T) {
	p := testPlan()
	ref := reference(t, p)
	c := New(Options{Dialer: Loopback{Workers: 2}, Shards: 1, ChunkPoints: 2, Journal: filepath.Join(t.TempDir(), "j")})
	journalPlanRange(t, c, p, 1, ref[1:3])

	seen := make([]int, p.Points())
	got := make([]engine.RunOutcome, p.Points())
	for out, err := range c.Stream(context.Background(), p) {
		if err != nil {
			t.Fatal(err)
		}
		seen[out.Index]++
		got[out.Index] = out
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("point %d delivered %d times, want once", i, n)
		}
	}
	requireIdentical(t, "misaligned journal", ref, got)
}

// TestJournalOutOfPlanIndicesNotReplayed: a start-0 record whose outcomes
// carry indices 70 and 71 of a 6-point plan made Sweep index past its
// result slice and panic.
func TestJournalOutOfPlanIndicesNotReplayed(t *testing.T) {
	p := testPlan()
	ref := reference(t, p)
	c := New(Options{Dialer: Loopback{Workers: 2}, Shards: 1, ChunkPoints: 2, Journal: filepath.Join(t.TempDir(), "j")})
	forged := append([]engine.RunOutcome(nil), ref[0:2]...)
	forged[0].Index, forged[1].Index = 70, 71
	journalPlanRange(t, c, p, 0, forged)

	outs, err := collect(context.Background(), c, p)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "out-of-plan journal", ref, outs)
}

// TestJournalForeignJobNotReplayed: a journal written under a plan with the
// same labels and shape whose jobs differ — one config field, or one
// workload's seed — is refused at open. Its records carry no jobs, so the
// fingerprint over every point's resolved job is what tells the plans apart:
// nothing replays from it, nothing from it primes the shared result cache,
// and the sweep fails with the journal's "different sweep" error.
func TestJournalForeignJobNotReplayed(t *testing.T) {
	p := testPlan()
	gcc, _ := workloads.ByName("gcc")
	seeded := gcc
	seeded.Seed++
	ftq := goldenCfg()
	ftq.FTQEntries++
	for name, foreign := range map[string]*engine.Plan{
		"config": testPlanOf(gcc, ftq),
		"seed":   testPlanOf(seeded, goldenCfg()),
	} {
		t.Run(name, func(t *testing.T) {
			if !slices.Equal(foreign.Rows(), p.Rows()) || !slices.Equal(foreign.Cols(), p.Cols()) || foreign.Points() != p.Points() {
				t.Fatal("the foreign plan's labels or shape differ from the plan's")
			}
			opts := Options{Dialer: deadDialer{}, Shards: 1, ChunkPoints: 2, Journal: filepath.Join(t.TempDir(), "j")}
			for start := 0; start < p.Points(); start += 2 {
				journalPlanRange(t, New(opts), foreign, start, synthRange(start, 2))
			}
			if _, _, err := OpenJournal(opts.Journal, New(opts).fingerprint(p), p.Points(), 2); err == nil || !strings.Contains(err.Error(), "different sweep") {
				t.Fatalf("the foreign journal opened under the plan: err = %v", err)
			}
			opts.Cache = new(engine.ResultCache)
			n := 0
			var streamErr error
			for _, err := range New(opts).Stream(context.Background(), p) {
				if err != nil {
					streamErr = err
					break
				}
				n++
			}
			if n != 0 || streamErr == nil || !strings.Contains(streamErr.Error(), "different sweep") {
				t.Errorf("the foreign journal replayed %d outcomes, stream error %v", n, streamErr)
			}
			if opts.Cache.Len() != 0 {
				t.Errorf("the foreign journal primed %d cache entries", opts.Cache.Len())
			}
		})
	}
}

// FuzzJournalReopen feeds arbitrary bytes to OpenJournal as the journal file,
// after a valid header line or without one. The open must either refuse a
// foreign header or return only ranges the plan could have committed: starts
// on a chunk boundary inside the plan, each with its range's count and
// outcome i at index Start+i. The file is truncated to exactly the kept
// records — the header and one line per distinct start — so a second open
// returns the same ranges, and a range committed after it round-trips. The
// seed corpus (testdata/fuzz/FuzzJournalReopen) holds a whole journal, a
// torn tail, a record missing its newline, a foreign header, a range of two
// golden outcomes as Commit writes them (without jobs) and the two replay
// probes: a misaligned start, and a start-0 record carrying indices 70 and
// 71.
func FuzzJournalReopen(f *testing.F) {
	const fp, points, chunk = 1, 7, 2
	header, err := json.Marshal(journalRecord{Type: "header", Fingerprint: fp, Points: points, Chunk: chunk})
	if err != nil {
		f.Fatal(err)
	}
	// Flushing proves nothing here and stalls on a busy disk.
	flush := durable.Sync
	durable.Sync = func(*os.File) error { return nil }
	f.Cleanup(func() { durable.Sync = flush })
	path := filepath.Join(f.TempDir(), "j")
	f.Fuzz(func(t *testing.T, withHeader bool, body []byte) {
		data := body
		if withHeader {
			data = slices.Concat(header, []byte("\n"), body)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, completed, err := OpenJournal(path, fp, points, chunk)
		if err != nil {
			if withHeader || !strings.Contains(err.Error(), "different sweep") {
				t.Fatalf("open refused: %v", err)
			}
			return
		}
		for start, outs := range completed {
			if start < 0 || start >= points || start%chunk != 0 || len(outs) != min(chunk, points-start) {
				t.Fatalf("replayed range %d with %d outcomes", start, len(outs))
			}
			for i, out := range outs {
				if out.Index != start+i {
					t.Fatalf("range %d outcome %d has index %d", start, i, out.Index)
				}
			}
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(kept, []byte("\n"))
		if len(lines) != len(completed)+2 || len(lines[len(lines)-1]) != 0 {
			t.Fatalf("file keeps %d lines for %d ranges:\n%s", len(lines)-1, len(completed), kept)
		}
		seen := map[int]bool{}
		for _, line := range lines[1 : len(lines)-1] {
			var rec journalRecord
			if err := json.Unmarshal(line, &rec); err != nil || seen[rec.Start] || completed[rec.Start] == nil {
				t.Fatalf("kept line %q: start seen %v, err %v", line, seen[rec.Start], err)
			}
			seen[rec.Start] = true
		}
		j.Close()

		j, again, err := OpenJournal(path, fp, points, chunk)
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		if !reflect.DeepEqual(again, completed) {
			t.Fatalf("second open replays %v, first %v", slices.Sorted(maps.Keys(again)), slices.Sorted(maps.Keys(completed)))
		}
		missing := 0
		for missing < points && completed[missing] != nil {
			missing += chunk
		}
		if missing < points {
			completed[missing] = synthRange(missing, min(chunk, points-missing))
			if err := j.Commit(missing, completed[missing]); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		j, again, err = OpenJournal(path, fp, points, chunk)
		if err != nil {
			t.Fatalf("open after commit: %v", err)
		}
		j.Close()
		if !reflect.DeepEqual(again, completed) {
			t.Fatalf("range %d did not round-trip: replays %v", missing, slices.Sorted(maps.Keys(again)))
		}
	})
}
