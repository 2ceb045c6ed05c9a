package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"symsim/internal/httpx"
)

// Handler wraps a Service in its HTTP API (stdlib net/http, JSON bodies):
//
//	GET  /healthz               liveness probe
//	GET  /metrics               Prometheus text exposition
//	GET  /metrics.json          Metrics snapshot (JSON)
//	POST /jobs                  submit a JobSpec  -> 201 JobView
//	GET  /jobs                  list jobs
//	GET  /jobs/{id}             one job's view
//	GET  /jobs/{id}/result      stored ResultSummary (409 until done)
//	GET  /jobs/{id}/events      SSE stream of progress + state events
//	POST /jobs/{id}/cancel      cancel a queued or running job
//
// Error mapping: invalid spec -> 400, unknown job -> 404, not-done result
// or cancel-after-finish -> 409, full queue -> 429, draining -> 503.
func Handler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Degraded mode still answers 200 — the daemon is alive and
		// serving — but the body says the store is failing writes so
		// orchestrators and humans can see it before submissions bounce.
		httpx.WriteJSON(w, http.StatusOK, s.Health())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.Registry().WritePrometheus(w); err != nil {
			s.cfg.Logf("service: writing /metrics: %v", err)
		}
	})
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, s.MetricsSnapshot())
	})
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		if !httpx.ReadJSON(w, r, &spec) {
			return
		}
		view, err := s.Submit(spec)
		if err != nil {
			httpx.WriteErr(w, submitStatus(err), err)
			return
		}
		httpx.WriteJSON(w, http.StatusCreated, view)
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, s.Jobs())
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		view, err := s.Job(r.PathValue("id"))
		if err != nil {
			httpx.WriteErr(w, http.StatusNotFound, err)
			return
		}
		httpx.WriteJSON(w, http.StatusOK, view)
	})
	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		data, err := s.Result(r.PathValue("id"))
		switch {
		case errors.Is(err, ErrUnknownJob):
			httpx.WriteErr(w, http.StatusNotFound, err)
		case errors.Is(err, ErrNotDone):
			httpx.WriteErr(w, http.StatusConflict, err)
		case err != nil:
			httpx.WriteErr(w, http.StatusInternalServerError, err)
		default:
			w.Header().Set("Content-Type", "application/json")
			if _, werr := w.Write(data); werr != nil {
				// The client is gone or the connection broke: the response
				// is truncated and only this log line will say so.
				s.cfg.Logf("service: writing result %s: %v", r.PathValue("id"), werr)
			}
		}
	})
	mux.HandleFunc("POST /jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		err := s.Cancel(r.PathValue("id"))
		switch {
		case errors.Is(err, ErrUnknownJob):
			httpx.WriteErr(w, http.StatusNotFound, err)
		case errors.Is(err, ErrJobFinished):
			httpx.WriteErr(w, http.StatusConflict, err)
		case err != nil:
			httpx.WriteErr(w, http.StatusInternalServerError, err)
		default:
			httpx.WriteJSON(w, http.StatusOK, map[string]string{"status": "canceling"})
		}
	})
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		serveEvents(s, w, r)
	})
	return mux
}

func submitStatus(err error) int {
	var bad *BadSpecError
	switch {
	case errors.As(err, &bad):
		return http.StatusBadRequest
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining), errors.Is(err, ErrQueueClosed), errors.Is(err, ErrDegraded):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// serveEvents streams a job's events as server-sent events, each with an
// `id:` line carrying its per-job sequence number. The stream is a cursor
// over the job's event log (hub.since) and one loop serves every kind of
// connection: a Last-Event-ID header sets the cursor, so a reconnect is
// handed the buffered events after it — exactly once, no gaps; a fresh
// connect, or a stale cursor, starts from a snapshot of the job's current
// state (so late subscribers see where it stands). The stream closes once
// the job reaches a terminal state or the client disconnects. Between
// events it emits SSE comment lines every Config.SSEKeepAlive so proxy
// idle timeouts don't sever streams of long-quiet jobs (e.g. queued
// behind a full pool).
func serveEvents(s *Service, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.Job(id); err != nil {
		httpx.WriteErr(w, http.StatusNotFound, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpx.WriteErr(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	// Without a Last-Event-ID the cursor is past anything ever published,
	// which is what a stale one looks like too.
	cursor := ^uint64(0)
	if n, err := strconv.ParseUint(r.Header.Get("Last-Event-ID"), 10, 64); err == nil {
		cursor = n
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	keepAlive := time.NewTicker(s.cfg.SSEKeepAlive)
	defer keepAlive.Stop()
	for {
		// The state is read before the log: a transition sets the state and
		// publishes its event under one s.mu, so a terminal state seen here
		// has its event at or before `latest` below.
		view, err := s.Job(id)
		if err != nil {
			return
		}
		events, latest, wake := s.hub.since(id, cursor)
		if cursor > latest {
			// Fresh connect, or a cursor from before a daemon restart
			// renumbered the stream: start from where the job stands. The
			// snapshot carries the latest sequence number, so the stream —
			// or an immediate reconnect — continues after it without
			// replaying the history it summarizes.
			events = []Event{{Type: "state", Job: id, State: view.State, Seq: latest}}
		}
		for _, ev := range events {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); err != nil {
				return
			}
			flusher.Flush()
			cursor = ev.Seq
			if ev.Type == "state" && terminal(ev.State) {
				return
			}
		}
		if terminal(view.State) {
			// No terminal event after the cursor, yet the job is terminal:
			// the client saw that event before it disconnected (state
			// events are never shed while heartbeats remain), so the stream
			// simply ends.
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-keepAlive.C:
			if _, err := io.WriteString(w, ": ping\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-wake:
		}
	}
}

func terminal(st State) bool {
	return st == StateDone || st == StateFailed || st == StateCanceled
}
