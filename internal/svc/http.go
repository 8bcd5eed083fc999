package svc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// The service HTTP API, all JSON:
//
//	POST   /v1/workers/register    {id, url, ttl_seconds}  register/heartbeat
//	POST   /v1/workers/deregister  {id}                    clean worker exit
//	GET    /v1/workers                                     live pool snapshot
//	POST   /v1/jobs                SubmitRequest           -> 202 JobStatus
//	                                                          429 queue full
//	                                                          413 body > 1 MiB
//	GET    /v1/jobs                                        all JobStatus
//	GET    /v1/jobs/{id}                                   one JobStatus
//	GET    /v1/jobs/{id}/stream?from=N                     NDJSON StreamFrames
//
// Workers themselves serve the dist run endpoint; the service only tracks
// their addresses. Streams flush per frame and honour from=N so a client that
// saw n frames reconnects with from=n and misses nothing.

// Request body bounds. A submission carries full core.Configs (about 1 KB
// each), so 1 MiB holds hundreds of columns; a worker body is an id and a URL.
const (
	maxSubmitBytes = 1 << 20
	maxWorkerBytes = 4 << 10
)

// decodeBody decodes r's JSON body into v, reading at most limit bytes. An
// oversized body is answered 413, any other decode failure 400 with msg.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any, msg string) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		http.Error(w, fmt.Sprintf("svc: request body exceeds %d bytes", limit), http.StatusRequestEntityTooLarge)
	case err != nil:
		http.Error(w, msg, http.StatusBadRequest)
	default:
		return true
	}
	return false
}

// registerRequest is the worker announcement body.
type registerRequest struct {
	ID  string `json:"id"`
	URL string `json:"url"`
	// TTLSeconds overrides the service's heartbeat budget for this worker
	// (0 = service default).
	TTLSeconds int `json:"ttl_seconds,omitempty"`
}

// Handler mounts the service API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/workers/register", func(w http.ResponseWriter, r *http.Request) {
		const msg = "svc: register body must carry id and url"
		var req registerRequest
		if !decodeBody(w, r, maxWorkerBytes, &req, msg) {
			return
		}
		if req.ID == "" || req.URL == "" {
			http.Error(w, msg, http.StatusBadRequest)
			return
		}
		s.reg.Register(req.ID, req.URL, time.Duration(req.TTLSeconds)*time.Second)
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("POST /v1/workers/deregister", func(w http.ResponseWriter, r *http.Request) {
		const msg = "svc: deregister body must carry id"
		var req registerRequest
		if !decodeBody(w, r, maxWorkerBytes, &req, msg) {
			return
		}
		if req.ID == "" {
			http.Error(w, msg, http.StatusBadRequest)
			return
		}
		s.reg.Deregister(req.ID)
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("GET /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.reg.Live())
	})

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		if !decodeBody(w, r, maxSubmitBytes, &req, "svc: body must be a SubmitRequest") {
			return
		}
		st, err := s.Submit(req)
		switch {
		case errors.Is(err, ErrQueueFull):
			http.Error(w, err.Error(), http.StatusTooManyRequests)
		case err != nil:
			http.Error(w, err.Error(), http.StatusBadRequest)
		default:
			writeJSON(w, http.StatusAccepted, st)
		}
	})

	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Jobs())
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := s.Job(r.PathValue("id"))
		if !ok {
			http.Error(w, "svc: unknown job", http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if _, ok := s.Job(id); !ok {
			http.Error(w, "svc: unknown job", http.StatusNotFound)
			return
		}
		from := 0
		if q := r.URL.Query().Get("from"); q != "" {
			var err error
			if from, err = strconv.Atoi(q); err != nil || from < 0 {
				http.Error(w, "svc: from must be a non-negative frame index", http.StatusBadRequest)
				return
			}
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		fl, _ := w.(http.Flusher)
		err := s.Stream(r.Context(), id, from, func(f StreamFrame) error {
			if err := enc.Encode(f.wire()); err != nil {
				return err
			}
			if fl != nil {
				fl.Flush()
			}
			return nil
		})
		// The stream body already carried its terminal frame, the client
		// went away, or the service is draining (dist.ErrQuiesced) and the
		// body ends without a terminator, which a client reads as a dropped
		// connection. Status is committed, nothing useful left to send.
		_ = err
	})

	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
