package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"symsim/internal/httpx"
	"symsim/internal/report"
)

// Handler serves the coordinator's cluster API (stdlib net/http, JSON
// bodies, absolute /cluster/... patterns so it mounts next to the job
// API without prefix stripping):
//
//	POST /cluster/runs                   register a RunSpec -> {id}
//	GET  /cluster/runs/{id}              run status
//	GET  /cluster/runs/{id}/result      the report.ResultSummary /jobs/{id}/result serves (409 until done)
//	POST /cluster/lease                 long-poll segments for one slot (204 = none)
//	POST /cluster/runs/{id}/report      settle a segment (?worker&path&epoch, body = its
//	                                    outcome, raw) -> the slot's next segment
//	POST /cluster/runs/{id}/fail        hand a segment back for another attempt
//	POST /cluster/runs/{id}/heartbeat   extend the leases of advancing segments
//
// Error mapping: bad payload -> 400, unknown run -> 404, stale epoch or
// not-done result -> 409, coordinator closed -> 503.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/runs", func(w http.ResponseWriter, r *http.Request) {
		c.om.rpcs.With("runs").Inc()
		var spec RunSpec
		if !httpx.ReadJSON(w, r, &spec) {
			return
		}
		id, err := c.NewRun(spec)
		if err != nil {
			httpx.WriteErr(w, statusOf(err), err)
			return
		}
		httpx.WriteJSON(w, http.StatusCreated, map[string]string{"id": id})
	})
	mux.HandleFunc("GET /cluster/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		c.om.rpcs.With("status").Inc()
		v, err := c.Status(r.PathValue("id"))
		if err != nil {
			httpx.WriteErr(w, statusOf(err), err)
			return
		}
		httpx.WriteJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("GET /cluster/runs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		c.om.rpcs.With("result").Inc()
		res, err := c.Result(r.PathValue("id"))
		if err != nil {
			httpx.WriteErr(w, statusOf(err), err)
			return
		}
		st, _ := c.Status(r.PathValue("id"))
		httpx.WriteJSON(w, http.StatusOK, report.Summarize(st.Spec.Design, st.Spec.Bench, res))
	})
	mux.HandleFunc("POST /cluster/lease", func(w http.ResponseWriter, r *http.Request) {
		c.om.rpcs.With("lease").Inc()
		var req leaseRequest
		if !httpx.ReadJSON(w, r, &req) {
			return
		}
		// Long-poll server-side well under the client's overall timeout.
		ctx, cancel := context.WithTimeout(r.Context(), time.Second)
		defer cancel()
		ls, err := c.Lease(ctx, req.Worker, time.Second)
		if err != nil {
			httpx.WriteErr(w, statusOf(err), err)
			return
		}
		if ls == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		httpx.WriteJSON(w, http.StatusOK, ls)
	})
	mux.HandleFunc("POST /cluster/runs/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		c.om.rpcs.With("report").Inc()
		q := r.URL.Query()
		id, err1 := strconv.Atoi(q.Get("path"))
		epoch, err2 := strconv.Atoi(q.Get("epoch"))
		// A body of the declared length in one allocation; io.ReadAll would
		// make several per report on its way there.
		outcome := make([]byte, max(0, min(r.ContentLength, 64<<20)))
		_, err3 := io.ReadFull(r.Body, outcome)
		if err := errors.Join(err1, err2, err3); err != nil {
			httpx.WriteErr(w, http.StatusBadRequest, fmt.Errorf("decoding report: %w", err))
			return
		}
		resp, err := c.Report(r.PathValue("id"), q.Get("worker"), id, epoch, outcome)
		if err != nil {
			httpx.WriteErr(w, statusOf(err), err)
			return
		}
		httpx.WriteJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /cluster/runs/{id}/fail", func(w http.ResponseWriter, r *http.Request) {
		c.om.rpcs.With("fail").Inc()
		var req failRequest
		if !httpx.ReadJSON(w, r, &req) {
			return
		}
		if err := c.Fail(r.PathValue("id"), req.ID, req.Epoch, req.Reason); err != nil {
			httpx.WriteErr(w, statusOf(err), err)
			return
		}
		httpx.WriteJSON(w, http.StatusOK, map[string]string{"status": "requeued"})
	})
	mux.HandleFunc("POST /cluster/runs/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		c.om.rpcs.With("heartbeat").Inc()
		var req heartbeatRequest
		if !httpx.ReadJSON(w, r, &req) {
			return
		}
		if err := c.Heartbeat(r.PathValue("id"), req.Leases); err != nil {
			httpx.WriteErr(w, statusOf(err), err)
			return
		}
		httpx.WriteJSON(w, http.StatusOK, map[string]string{"status": "extended"})
	})
	return mux
}

func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrUnknownRun):
		return http.StatusNotFound
	case errors.Is(err, ErrStale), errors.Is(err, ErrNotDone):
		return http.StatusConflict
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrBadPayload):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}
