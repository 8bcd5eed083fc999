package svc

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestStreamRejectsMalformedCursor: from= is a whole non-negative frame
// index; trailing garbage is refused, not read as its numeric prefix.
func TestStreamRejectsMalformedCursor(t *testing.T) {
	s, c, done := service(t, t.TempDir(), Options{Shards: 1})
	defer done()
	st, err := s.Submit(testReq("cursor")) // no workers: the sweep parks
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// An accepted cursor would follow the parked sweep until the timeout.
	hc := &http.Client{Timeout: 5 * time.Second}
	for _, from := range []string{"3abc", "1e3", " 3", "0x3", "-1"} {
		resp, err := hc.Get(c.Base + "/v1/jobs/" + st.ID + "/stream?from=" + url.QueryEscape(from))
		if err != nil {
			t.Errorf("from=%q: %v; want an immediate 400", from, err)
			continue
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("from=%q answered %d, want 400", from, resp.StatusCode)
		}
	}
}

// TestRequestBodiesBounded: an oversized submission is refused before it is
// decoded, so it is never journaled, and worker announcements have their own,
// smaller bound.
func TestRequestBodiesBounded(t *testing.T) {
	dir := t.TempDir()
	s, c, done := service(t, dir, Options{Shards: 1})
	defer done()
	post := func(path string, v any) int {
		t.Helper()
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(c.Base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	big := testReq(strings.Repeat("x", maxSubmitBytes))
	if code := post("/v1/jobs", big); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized submission answered %d, want 413", code)
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Errorf("oversized submission was queued: %+v", jobs)
	}
	if data, err := os.ReadFile(filepath.Join(dir, "queue.journal")); err != nil || len(data) != 0 {
		t.Errorf("queue journal after an oversized submission: %q / %v; want empty", data, err)
	}

	hog := registerRequest{ID: "w", URL: "http://127.0.0.1:1/" + strings.Repeat("x", maxWorkerBytes)}
	if code := post("/v1/workers/register", hog); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized registration answered %d, want 413", code)
	}
	if code := post("/v1/workers/deregister", hog); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized deregistration answered %d, want 413", code)
	}
	if live := s.reg.Live(); len(live) != 0 {
		t.Errorf("oversized registration joined the pool: %+v", live)
	}
}
