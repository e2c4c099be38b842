package main

// HTTP surface of the sweep service. The handler is a plain http.Handler
// over a jobs.Scheduler so the endpoint tests run it under httptest without
// a process boundary.
//
//	POST /jobs              submit a sweep (JSON sweepreq.Request)
//	GET  /jobs              list jobs
//	GET  /jobs/{id}         one job's status
//	GET  /jobs/{id}/events  event stream (SSE or NDJSON)
//	GET  /jobs/{id}/result  cached result of a done job
//	POST /jobs/{id}/stop    graceful stop (checkpoint + resumable)
//	GET  /healthz           liveness

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/jobs"
	"repro/internal/sweepreq"
)

// submitResponse answers POST /jobs: the job ID is the config digest, and
// started reports whether this submission actually launched sweep work
// (false = joined a live job or hit the result cache).
type submitResponse struct {
	ID      string     `json:"id"`
	Exp     string     `json:"exp"`
	State   jobs.State `json:"state"`
	Started bool       `json:"started"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func newServer(sched *jobs.Scheduler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var req sweepreq.Request
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		job, started, err := sched.Submit(req)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, jobs.ErrShuttingDown) {
				code = http.StatusServiceUnavailable
			}
			writeError(w, code, err)
			return
		}
		code := http.StatusOK // joined or cache hit
		if started {
			code = http.StatusCreated
		}
		writeJSON(w, code, submitResponse{
			ID: job.Digest, Exp: job.Exp, State: job.State(), Started: started,
		})
	})

	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, sched.List())
	})

	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := sched.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no job %s", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, job.Status())
	})

	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		job, ok := sched.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no job %s", r.PathValue("id")))
			return
		}
		streamEvents(w, r, job)
	})

	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		job, ok := sched.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no job %s", r.PathValue("id")))
			return
		}
		if st := job.State(); st != jobs.StateDone {
			writeError(w, http.StatusConflict, fmt.Errorf("job %s is %s, not done", job.Digest, st))
			return
		}
		// A done job always holds its result: it is installed before the
		// done event, or together with it for a cache hit.
		res, _ := job.Result()
		writeJSON(w, http.StatusOK, res)
	})

	mux.HandleFunc("POST /jobs/{id}/stop", func(w http.ResponseWriter, r *http.Request) {
		if !sched.StopJob(r.PathValue("id")) {
			writeError(w, http.StatusNotFound, fmt.Errorf("no job %s", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]string{"id": r.PathValue("id"), "stop": "requested"})
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	return mux
}

// streamEvents replays and follows a job's event log until the terminal
// event or client disconnect. With `Accept: text/event-stream` the wire
// format is SSE (`event:`/`data:` frames); otherwise newline-delimited
// JSON, one Event per line — tail-able with curl alone.
func streamEvents(w http.ResponseWriter, r *http.Request, job *jobs.Job) {
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	ch, cancel := job.Subscribe()
	defer cancel()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if sse {
				fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
			} else {
				fmt.Fprintf(w, "%s\n", data)
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}
