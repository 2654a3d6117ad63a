package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
)

// maxRequestBytes bounds a job submission body. Inline LEF/DEF text for
// the designs this daemon targets runs to tens of megabytes; beyond this
// the client should split the design, not the server its memory.
const maxRequestBytes = 256 << 20 // unit: B

// Handler returns the daemon's HTTP API:
//
//	POST   /jobs              submit (202; 400 bad request; 429 queue full, Retry-After; 503 draining)
//	GET    /jobs/{id}         status JSON
//	DELETE /jobs/{id}         request cancellation (202)
//	GET    /jobs/{id}/def     post-CTS DEF (409 until done)
//	GET    /jobs/{id}/report  run report, schema sllt.obs.report/v1.1 (409 until done)
//	GET    /jobs/{id}/events  NDJSON progress stream: replay, then follow until terminal
//	GET    /healthz           liveness
//	GET    /stats             queue/load counters
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/def", s.handleDEF)
	mux.HandleFunc("GET /jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	return mux
}

// handleSubmit is the admission path: decode strictly, enqueue or shed.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "request body too large or unreadable")
		return
	}
	req, err := DecodeJobRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	st, err := s.Submit(req)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Load shedding: the queue is the backpressure signal. Tell the
		// client when to come back rather than buffering unboundedly.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.Cancel(id) {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	j, _ := s.Job(id)
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) handleDEF(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	def, _, ok := j.artifacts()
	if !ok {
		writeError(w, http.StatusConflict, "job not done: "+string(j.status().State))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(def)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	_, report, ok := j.artifacts()
	if !ok {
		writeError(w, http.StatusConflict, "job not done: "+string(j.status().State))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(report)
}

// handleEvents streams the job's progress as chunked NDJSON: everything
// recorded so far replays immediately, then the connection follows live
// events until the job reaches a terminal state or the client goes away.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, canFlush := w.(http.Flusher)
	from := 0
	for {
		lines, next, done, wake := j.events.since(from)
		for _, ln := range lines {
			if _, err := w.Write(ln); err != nil {
				return
			}
		}
		if len(lines) > 0 && canFlush {
			flusher.Flush()
		}
		from = next
		if done {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "encoding failure", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
