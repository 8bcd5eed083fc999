package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"fdip/internal/core"
	"fdip/internal/dist"
	"fdip/internal/durable"
)

// countSyncs routes durable.Sync through a counter for the rest of the test.
func countSyncs(t *testing.T) *atomic.Int64 {
	n := new(atomic.Int64)
	flush := durable.Sync
	durable.Sync = func(f *os.File) error {
		n.Add(1)
		return flush(f)
	}
	t.Cleanup(func() { durable.Sync = flush })
	return n
}

// waitState polls a sweep's status until it reaches state.
func waitState(t *testing.T, c *Client, id, state string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if st.State == state {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s never reached %s; status %+v", id, state, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// dropRecords rewrites an NDJSON journal without the records drop matches.
func dropRecords(t *testing.T, path string, drop func(rec map[string]any) bool) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	var kept []byte
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		var rec map[string]any
		if len(bytes.TrimSpace(line)) > 0 && json.Unmarshal(line, &rec) == nil && drop(rec) {
			continue
		}
		kept = append(kept, line...)
	}
	if err := os.WriteFile(path, kept, 0o644); err != nil {
		t.Fatalf("rewrite %s: %v", path, err)
	}
}

// TestServiceRestartAfterPowerLoss is the crash regression for the records
// written without an fsync. A source sweep runs, and an identical repeat is
// served wholly from the shared cache, so none of the repeat's ranges and
// neither done record is flushed. The test shuts down, rewrites the state
// directory to what a power loss may leave, and reboots: every stream must
// still match the single-process reference, no job may ship again, the
// repeat must still be wholly cache-served, and no sweep whose done record
// survived may run (and finish) a second time.
func TestServiceRestartAfterPowerLoss(t *testing.T) {
	req := testReq("power-loss")
	ref := reference(t, req)
	park := SubmitRequest{Workloads: []string{"gcc"}, Instrs: 10_000,
		Configs: []ConfigPoint{{Name: "base", Config: testCfg(core.PrefetchNone)}}}
	type submission struct {
		role     string // "source", "repeat" or "park"
		priority int
	}
	cases := []struct {
		name string
		// subs are submitted in order before any worker registers; the
		// first one claims the scheduler and parks on the empty pool.
		subs []submission
		// dropDone names the sweeps whose done record the power loss drops.
		// It always drops every range record of the repeat's journal.
		dropDone []string
	}{
		// The repeat lost its done record too: it re-queues and is served
		// from the cache again.
		{"repeat-unfinished", []submission{{"source", 0}, {"repeat", 0}}, []string{"repeat"}},
		// The repeat's done record survived its ranges: its replay serves
		// them from the cache.
		{"repeat-done", []submission{{"source", 0}, {"repeat", 0}}, nil},
		// Priority inversion: the repeat was submitted first, but the
		// high-priority source finished first. A replay in submission order
		// reaches the repeat before its cache source.
		{"priority-inverted", []submission{{"park", 0}, {"repeat", 0}, {"source", 5}}, nil},
		// Both done records are lost and the re-queued repeat outranks its
		// source: the source's journal must prime the cache before the
		// scheduler reaches the repeat.
		{"both-unfinished", []submission{{"source", 0}, {"repeat", 5}}, []string{"source", "repeat"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			wc := &workerCounter{}
			w := countingWorker(wc)
			defer w.Close()
			ctx := context.Background()

			_, c1, done1 := service(t, dir, Options{Shards: 2})
			ids := map[string]string{}
			for i, sub := range tc.subs {
				r := req
				if sub.role == "park" {
					r = park
				}
				r.Label, r.Priority = sub.role, sub.priority
				st, err := c1.Submit(ctx, r)
				if err != nil {
					t.Fatalf("submit %s: %v", sub.role, err)
				}
				ids[sub.role] = st.ID
				if i == 0 {
					waitState(t, c1, st.ID, StateRunning)
				}
			}
			c1.Register(ctx, "w", w.URL, time.Minute)
			for _, sub := range tc.subs {
				if err := c1.Stream(ctx, ids[sub.role], 0, func(StreamFrame) error { return nil }); err != nil {
					t.Fatalf("stream %s: %v", sub.role, err)
				}
			}
			if st, _ := c1.Job(ctx, ids["repeat"]); st.Cached != len(ref) {
				t.Fatalf("repeat Cached=%d before the power loss, want %d", st.Cached, len(ref))
			}
			shipped := wc.shipped()
			done1()

			dropRecords(t, filepath.Join(dir, ids["repeat"]+".journal"), func(rec map[string]any) bool {
				return rec["type"] == "range"
			})
			lost := map[any]bool{}
			for _, role := range tc.dropDone {
				lost[ids[role]] = true
			}
			dropRecords(t, filepath.Join(dir, "queue.journal"), func(rec map[string]any) bool {
				return rec["op"] == "done" && lost[rec["id"]]
			})

			_, c2, done2 := service(t, dir, Options{Shards: 2})
			c2.Register(ctx, "w", w.URL, time.Minute)
			for _, role := range []string{"source", "repeat"} {
				requireIdentical(t, role, ref, collect(t, c2, ids[role], len(ref)))
			}
			if n := wc.shipped(); n != shipped {
				t.Errorf("reboot shipped %d jobs, want 0", n-shipped)
			}
			st, err := c2.Job(ctx, ids["repeat"])
			if err != nil || st.State != StateDone || st.Cached != len(ref) {
				t.Errorf("repeat after reboot: %+v / %v; want done with Cached=%d", st, err, len(ref))
			}
			done2()

			// A sweep that ran again after the reboot has a second done
			// record; one whose done record survived must replay instead.
			q, records, err := durable.Open[queueRecord](filepath.Join(dir, "queue.journal"), nil)
			if err != nil {
				t.Fatalf("reopen queue journal: %v", err)
			}
			q.Close(false)
			doneRecs := map[string]int{}
			for _, rec := range records {
				if rec.Op == "done" {
					doneRecs[rec.ID]++
				}
			}
			for role, id := range ids {
				if doneRecs[id] != 1 {
					t.Errorf("%s has %d done records, want 1", role, doneRecs[id])
				}
			}
		})
	}
}

// TestServiceFsyncCount pins what the durability rule costs per sweep: a
// cold 2-range sweep flushes its submission and its two executed ranges, a
// wholly cache-served repeat only its submission, and shutdown flushes the
// queue journal's unsynced done records once.
func TestServiceFsyncCount(t *testing.T) {
	syncs := countSyncs(t)
	req := testReq("fsync")
	req.ChunkPoints = 3 // 6 points, 2 ranges

	_, c, done := service(t, t.TempDir(), Options{Shards: 2})
	w := httptest.NewServer(dist.NewWorker(2).Handler())
	defer w.Close()
	ctx := context.Background()
	c.Register(ctx, "w", w.URL, time.Minute)

	for _, tc := range []struct {
		kind string
		want int64
	}{{"cold", 3}, {"repeat", 1}} {
		before := syncs.Load()
		st, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatalf("submit %s: %v", tc.kind, err)
		}
		collect(t, c, st.ID, 6)
		if got := syncs.Load() - before; got != tc.want {
			t.Errorf("%s sweep made %d fsyncs, want %d", tc.kind, got, tc.want)
		}
	}
	before := syncs.Load()
	done()
	if got := syncs.Load() - before; got != 1 {
		t.Errorf("shutdown made %d fsyncs, want 1 (the queue journal's close)", got)
	}
}

// TestServiceRequeuesUnreplayableSweep: a finished sweep whose journal is gone
// and whose points no other journal holds cannot replay. It must go back to
// queued and run again, not report done with an empty stream.
func TestServiceRequeuesUnreplayableSweep(t *testing.T) {
	req := testReq("lost-journal")
	ref := reference(t, req)
	dir := t.TempDir()
	wc := &workerCounter{}
	w := countingWorker(wc)
	defer w.Close()
	ctx := context.Background()

	_, c1, done1 := service(t, dir, Options{Shards: 2})
	c1.Register(ctx, "w", w.URL, time.Minute)
	st, err := c1.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	collect(t, c1, st.ID, len(ref))
	done1()
	if err := os.Remove(filepath.Join(dir, st.ID+".journal")); err != nil {
		t.Fatal(err)
	}

	_, c2, done2 := service(t, dir, Options{Shards: 2})
	defer done2()
	c2.Register(ctx, "w", w.URL, time.Minute)
	requireIdentical(t, "re-run", ref, collect(t, c2, st.ID, len(ref)))
	if n := wc.shipped(); n != 2*len(ref) {
		t.Errorf("%d jobs shipped, want %d (the lost sweep runs again)", n, 2*len(ref))
	}
}

// TestServiceRequeuesPartlyJournaledSweep: a finished sweep whose journal
// lost one executed range, and whose points no other journal holds, keeps
// its done record but cannot replay. It must go back to queued and ship
// exactly that range's job, and its stream must still match the reference.
func TestServiceRequeuesPartlyJournaledSweep(t *testing.T) {
	req := testReq("partial-journal")
	ref := reference(t, req)
	dir := t.TempDir()
	wc := &workerCounter{}
	w := countingWorker(wc)
	defer w.Close()
	ctx := context.Background()

	_, c1, done1 := service(t, dir, Options{Shards: 2})
	c1.Register(ctx, "w", w.URL, time.Minute)
	st, err := c1.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	collect(t, c1, st.ID, len(ref))
	done1()
	dropRecords(t, filepath.Join(dir, st.ID+".journal"), func(rec map[string]any) bool {
		return rec["type"] == "range" && rec["start"] == float64(3)
	})

	_, c2, done2 := service(t, dir, Options{Shards: 2})
	defer done2()
	c2.Register(ctx, "w", w.URL, time.Minute)
	requireIdentical(t, "re-run", ref, collect(t, c2, st.ID, len(ref)))
	if n := wc.shipped(); n != len(ref)+1 {
		t.Errorf("restart shipped %d jobs, want 1 (the range the journal lost)", n-len(ref))
	}
	if got, err := c2.Job(ctx, st.ID); err != nil || got.State != StateDone {
		t.Errorf("sweep after restart: %+v / %v; want done", got, err)
	}
}

// FuzzQueueRestore feeds arbitrary bytes to a restarting service as its
// queue journal, then submits once and shuts down, with no workers. Restore
// must not panic and must restore each id once; the Submit must issue an id
// no journaled submit used; and a done or failed record whose id has no
// earlier submit must change nothing, so a service restored from the journal
// without those records holds the same sweeps. The seed corpus
// (testdata/fuzz/FuzzQueueRestore) holds the reissue probe (an unplannable
// submit and an id journaled twice), an id whose successor overflows, a
// duplicate submit id, and a done before its submit beside records for
// unknown ids.
func FuzzQueueRestore(f *testing.F) {
	// Flushing proves nothing here and stalls on a busy disk.
	flush := durable.Sync
	durable.Sync = func(*os.File) error { return nil }
	f.Cleanup(func() { durable.Sync = flush })
	f.Fuzz(func(t *testing.T, data []byte) {
		dir, ref := t.TempDir(), t.TempDir()
		path := filepath.Join(dir, "queue.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// The records restore reads, one per kept line, and the journal
		// without its terminal records for ids not yet submitted.
		q, recs, err := durable.Open[queueRecord](path, nil)
		if err != nil {
			t.Fatal(err)
		}
		q.Close(false)
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var orphanFree []byte
		journaled := map[string]bool{}
		for i, line := range bytes.SplitAfter(kept, []byte("\n"))[:len(recs)] {
			switch recs[i].Op {
			case "submit":
				journaled[recs[i].ID] = true
			case "done", "failed":
				if !journaled[recs[i].ID] {
					continue
				}
			}
			orphanFree = append(orphanFree, line...)
		}
		if err := os.WriteFile(filepath.Join(ref, "queue.journal"), orphanFree, 0o644); err != nil {
			t.Fatal(err)
		}

		s, err := New(Options{StateDir: dir})
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		st, err := s.Submit(SubmitRequest{Workloads: []string{"gcc"}, Configs: []ConfigPoint{{Name: "base", Config: testCfg(core.PrefetchNone)}}})
		if err == nil && journaled[st.ID] {
			t.Errorf("Submit reissued journaled id %s", st.ID)
		}
		if err := s.Shutdown(); err != nil {
			t.Fatal(err)
		}
		want, err := New(Options{StateDir: ref})
		if err != nil {
			t.Fatalf("restore without orphan records: %v", err)
		}
		if err := want.Shutdown(); err != nil {
			t.Fatal(err)
		}
		got := slices.DeleteFunc(s.Jobs(), func(j JobStatus) bool { return j.ID == st.ID })
		if !slices.Equal(got, want.Jobs()) {
			t.Errorf("orphan done/failed records changed the restore:\nwith    %+v\nwithout %+v", got, want.Jobs())
		}
		ids := map[string]bool{}
		for _, j := range got {
			if _, ok := idSeq(j.ID); !ok || ids[j.ID] {
				t.Errorf("restored id %s: one Submit could write %v, seen before %v", j.ID, ok, ids[j.ID])
			}
			ids[j.ID] = true
		}
	})
}
