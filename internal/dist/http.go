package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"fdip/internal/engine"
)

// HTTP dials sessions against a long-running fdipd HTTP worker (fdipd
// -listen). Each Run is one POST of an assign frame; the response streams
// the piece's NDJSON outcome frames. Sessions are connection-light (the
// http.Client pools connections), so a "dead session" here just means the
// last request failed and the coordinator should retry — against the same
// worker if it recovered, or another one under a Registry. An HTTP dialer
// contacts no worker before Run, so it is not Slotted and its coordinators
// dispatch whole ranges; a Registry learns its workers' slots from their
// responses.
type HTTP struct {
	// URL is the worker's base URL ("http://host:8080"); a URL with no path
	// (or "/") is normalised to the /v1/run endpoint, an explicit path is
	// used as-is.
	URL string
}

// Dial validates and normalises the URL; no connection is made until Run.
func (h HTTP) Dial(ctx context.Context) (Session, error) {
	u, err := url.Parse(h.URL)
	if err != nil {
		return nil, fmt.Errorf("dist: worker url %q: %w", h.URL, err)
	}
	if u.Path == "" || u.Path == "/" {
		u.Path = "/v1/run"
	}
	return &httpSession{url: u.String()}, nil
}

// slotsHeader carries a worker's slot count (Worker.Slots) on every run
// response.
const slotsHeader = "Fdip-Worker-Slots"

// httpSession posts through http.DefaultClient, which sets no response
// timeout: streams are long-lived, and a timeout would kill healthy ranges.
type httpSession struct {
	url   string
	slots int // the worker's slot count from its last response (0 = unknown)
}

func (s *httpSession) Run(ctx context.Context, a Assignment, emit func(engine.RunOutcome) error) error {
	body, err := json.Marshal(frame{Type: "assign", Assign: &a})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("dist: post assignment: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("dist: worker %s: %s: %s", s.url, resp.Status, bytes.TrimSpace(msg))
	}
	if n, err := strconv.Atoi(resp.Header.Get(slotsHeader)); err == nil && n > 0 {
		s.slots = n
	}
	// A body past the bound ends before its terminator: a dead worker.
	return readOutcomes(json.NewDecoder(io.LimitReader(resp.Body, int64(len(a.Jobs)+1)*maxFrameBytes)), emit)
}

func (s *httpSession) Close() error { return nil }
