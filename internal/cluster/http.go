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
)

// Handler serves the worker RPCs (stdlib net/http, JSON bodies, absolute
// /cluster/... patterns):
//
//	POST /cluster/lease                 long-poll segments for one slot (204 = none)
//	POST /cluster/runs/{id}/report      settle a segment (?path&epoch, body = its
//	                                    outcome, raw) -> the slot's next segment
//	POST /cluster/runs/{id}/fail        hand a segment back for another attempt
//	POST /cluster/runs/{id}/heartbeat   extend the leases of advancing segments
//
// Runs are opened with NewRun and collected with Wait in the coordinator's
// process; the handler serves no run management. Error mapping: bad
// payload -> 400, unknown run -> 404, stale epoch -> 409, coordinator
// closed -> 503.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/lease", func(w http.ResponseWriter, r *http.Request) {
		c.om.rpcs.With("lease").Inc()
		// Long-poll server-side well under the client's overall timeout.
		ctx, cancel := context.WithTimeout(r.Context(), time.Second)
		defer cancel()
		ls, err := c.Lease(ctx, time.Second)
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
		resp, err := c.Report(r.PathValue("id"), id, epoch, outcome)
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
	case errors.Is(err, ErrStale):
		return http.StatusConflict
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrBadPayload):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}
