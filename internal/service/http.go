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
// `id:` line carrying its per-job sequence number. A fresh stream starts
// with the job's current state (so late subscribers see where it stands);
// a reconnect with a Last-Event-ID header instead replays the buffered
// events after that sequence number — exactly once, no gaps — from the
// hub's bounded ring. The stream then forwards live hub events and closes
// once the job reaches a terminal state or the client disconnects.
// Between events it emits SSE comment lines every Config.SSEKeepAlive so
// proxy idle timeouts don't sever streams of long-quiet jobs (e.g.
// queued behind a full pool).
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
	afterSeq := ^uint64(0) // fresh connect: no replay
	resuming := false
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, perr := strconv.ParseUint(v, 10, 64); perr == nil {
			afterSeq, resuming = n, true
		}
	}
	// The replay snapshot and the subscription are atomic under the hub
	// lock, so nothing published between them can be lost or duplicated.
	replay, latest, ch, cancel := s.hub.SubscribeFrom(id, afterSeq)
	defer cancel()
	if resuming && afterSeq > latest {
		// Stale cursor (e.g. from before a daemon restart renumbered the
		// stream): the replay window is meaningless, fall back to a fresh
		// snapshot.
		resuming = false
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(ev Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	if resuming {
		for _, ev := range replay {
			if !send(ev) {
				return
			}
			if ev.Type == "state" && terminal(ev.State) {
				return
			}
		}
		// The replay held no terminal event; if the job is terminal
		// anyway, the client saw that event before it disconnected (state
		// events are never shed while heartbeats remain), so the stream
		// simply ends.
		view, err := s.Job(id)
		if err != nil || terminal(view.State) {
			return
		}
	} else {
		// Snapshot carries the latest sequence number so an immediate
		// reconnect resumes without replaying history the snapshot
		// already summarized.
		view, _ := s.Job(id)
		if !send(Event{Type: "state", Job: id, State: view.State, Seq: latest}) {
			return
		}
		if terminal(view.State) {
			return
		}
	}
	keepAlive := time.NewTicker(s.cfg.SSEKeepAlive)
	defer keepAlive.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-keepAlive.C:
			if _, err := io.WriteString(w, ": ping\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case ev := <-ch:
			if !send(ev) {
				return
			}
			if ev.Type == "state" && terminal(ev.State) {
				return
			}
		}
	}
}

func terminal(st State) bool {
	return st == StateDone || st == StateFailed || st == StateCanceled
}
