package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// ErrSweepFailed wraps a stream's terminal error frame — the sweep itself
// failed, as opposed to a transport error a client should reconnect through.
var ErrSweepFailed = errors.New("svc: sweep failed")

// Client talks to a sweep service over its HTTP API: submission, status,
// streaming, and worker self-registration (the loop cmd/fdipd -register runs).
type Client struct {
	// Base is the service root ("http://host:9090"). Every request goes
	// through http.DefaultClient, which sets no response timeout: streams
	// are long-lived.
	Base string
}

func (c *Client) url(path string) string {
	return c.Base + path
}

// do issues one JSON request, decoding a JSON response into out (nil = drain).
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if resp.StatusCode == http.StatusTooManyRequests {
			return fmt.Errorf("%w: %s", ErrQueueFull, bytes.TrimSpace(msg))
		}
		return fmt.Errorf("svc: %s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit enqueues one sweep, returning its accepted status (and ErrQueueFull
// — wrapped — on backpressure).
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &st)
	return st, err
}

// Job fetches one sweep's status.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &st)
	return st, err
}

// Register announces (or heartbeats) a worker.
func (c *Client) Register(ctx context.Context, id, workerURL string, ttl time.Duration) error {
	return c.do(ctx, http.MethodPost, "/v1/workers/register",
		registerRequest{ID: id, URL: workerURL, TTLSeconds: int(ttl / time.Second)}, nil)
}

// Deregister removes a worker from the pool (clean shutdown).
func (c *Client) Deregister(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, "/v1/workers/deregister", registerRequest{ID: id}, nil)
}

// Heartbeat keeps one worker registered until ctx ends, re-announcing every
// ttl/3 (so two beats can be lost before the registry expires it), then
// deregisters cleanly. The first registration is synchronous but tolerates a
// service that is still coming up: it retries with backoff for up to ~10s
// (workers and the service are routinely launched together), and only when
// that window is exhausted — or ctx dies — does Heartbeat return a non-nil
// error meaning the worker never joined.
func (c *Client) Heartbeat(ctx context.Context, id, workerURL string, ttl time.Duration) error {
	if ttl <= 0 {
		ttl = 15 * time.Second
	}
	var err error
	backoff := 100 * time.Millisecond
	for deadline := time.Now().Add(10 * time.Second); ; backoff *= 2 {
		if err = c.Register(ctx, id, workerURL, ttl); err == nil {
			break
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			return err
		}
		select {
		case <-ctx.Done():
			return err
		case <-time.After(backoff):
		}
	}
	go func() {
		tick := time.NewTicker(ttl / 3)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				// Best-effort clean exit off the dying context.
				dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				_ = c.Deregister(dctx, id)
				cancel()
				return
			case <-tick.C:
				_ = c.Register(ctx, id, workerURL, ttl)
			}
		}
	}()
	return nil
}

// Stream follows one sweep's NDJSON result stream from frame index from,
// invoking fn per frame until the terminal done/error frame (returned nil /
// as an error), ctx death, or a transport failure. The caller owns reconnect
// policy: on a dropped connection, resume with from = frames seen so far.
func (c *Client) Stream(ctx context.Context, id string, from int, fn func(StreamFrame) error) error {
	path := "/v1/jobs/" + url.PathEscape(id) + "/stream?from=" + strconv.Itoa(from)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(path), nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("svc: stream %s: %s: %s", id, resp.Status, bytes.TrimSpace(msg))
	}
	return readStream(resp.Body, id, fn)
}

// readStream reads one stream body, invoking fn per outcome frame until the
// terminal done (nil) or error (ErrSweepFailed) frame. A body that ends or
// corrupts before its terminator is an error, and so is an outcome frame
// without an outcome: a StreamFrame fn sees always carries one.
func readStream(body io.Reader, id string, fn func(StreamFrame) error) error {
	dec := json.NewDecoder(body)
	for {
		var w streamWire
		if err := dec.Decode(&w); err != nil {
			if err == io.EOF {
				return fmt.Errorf("svc: stream %s ended without a terminal frame", id)
			}
			return err
		}
		switch w.Type {
		case "outcome":
			if w.Outcome == nil {
				return fmt.Errorf("svc: stream %s: outcome frame without an outcome", id)
			}
			out := w.Outcome.Outcome()
			if err := fn(StreamFrame{Type: w.Type, Seq: w.Seq, Outcome: &out, Error: w.Error}); err != nil {
				return err
			}
		case "done":
			return nil
		case "error":
			return fmt.Errorf("%w: %s: %s", ErrSweepFailed, id, w.Error)
		default:
			return fmt.Errorf("svc: stream %s: unknown frame type %q", id, w.Type)
		}
	}
}
