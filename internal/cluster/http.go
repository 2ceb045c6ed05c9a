package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Handler serves the coordinator's cluster API (stdlib net/http, JSON
// bodies, absolute /cluster/... patterns so it mounts next to the job
// API without prefix stripping):
//
//	POST /cluster/runs                   register a RunSpec -> {id}
//	GET  /cluster/runs/{id}              run status
//	GET  /cluster/runs/{id}/result      result summary (409 until done)
//	POST /cluster/lease                 long-poll segments for one slot (204 = none)
//	POST /cluster/runs/{id}/report      settle a segment (?worker&path&epoch&want, body = its
//	                                    outcome, raw) -> the slot's next segments
//	POST /cluster/runs/{id}/fail        hand a segment back for another attempt
//	POST /cluster/runs/{id}/heartbeat   extend the leases of advancing segments
//	GET  /cluster/cache/{key}           cluster-wide memo table lookup
//	PUT  /cluster/cache/{key}           cluster-wide memo table publish
//
// Error mapping: bad payload -> 400, unknown run -> 404, stale epoch or
// not-done result -> 409, coordinator closed -> 503.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/runs", func(w http.ResponseWriter, r *http.Request) {
		c.om.rpcs.With("runs").Inc()
		var spec RunSpec
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&spec); err != nil {
			c.writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding run spec: %w", err))
			return
		}
		id, err := c.NewRun(spec)
		if err != nil {
			c.writeErr(w, statusOf(err), err)
			return
		}
		c.writeJSON(w, http.StatusCreated, createRunResponse{ID: id})
	})
	mux.HandleFunc("GET /cluster/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		c.om.rpcs.With("status").Inc()
		v, err := c.Status(r.PathValue("id"))
		if err != nil {
			c.writeErr(w, statusOf(err), err)
			return
		}
		c.writeJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("GET /cluster/runs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		c.om.rpcs.With("result").Inc()
		res, err := c.Result(r.PathValue("id"))
		if err != nil {
			c.writeErr(w, statusOf(err), err)
			return
		}
		st, _ := c.Status(r.PathValue("id"))
		red := 0.0
		if res.TotalGates > 0 {
			red = 100 * float64(res.TotalGates-res.ExercisableCount) / float64(res.TotalGates)
		}
		c.writeJSON(w, http.StatusOK, RunResultView{
			Design:           res.Design.Name,
			Bench:            st.Spec.Bench,
			Policy:           res.Policy,
			Complete:         res.Complete,
			ExercisableCount: res.ExercisableCount,
			TotalGates:       res.TotalGates,
			ReductionPct:     red,
			PathsCreated:     res.PathsCreated,
			PathsSkipped:     res.PathsSkipped,
			SimulatedCycles:  res.SimulatedCycles,
			CSMStates:        res.CSMStates,
			TieOffs:          len(res.TieOffs()),
		})
	})
	mux.HandleFunc("POST /cluster/lease", func(w http.ResponseWriter, r *http.Request) {
		c.om.rpcs.With("lease").Inc()
		var req leaseRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
			c.writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding lease request: %w", err))
			return
		}
		// Long-poll server-side well under the client's overall timeout.
		ctx, cancel := context.WithTimeout(r.Context(), time.Second)
		defer cancel()
		ls, err := c.Lease(ctx, req.Worker, time.Second)
		if err != nil {
			c.writeErr(w, statusOf(err), err)
			return
		}
		if ls == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		c.writeJSON(w, http.StatusOK, ls)
	})
	mux.HandleFunc("POST /cluster/runs/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		c.om.rpcs.With("report").Inc()
		q := r.URL.Query()
		id, err1 := strconv.Atoi(q.Get("path"))
		epoch, err2 := strconv.Atoi(q.Get("epoch"))
		want, err3 := strconv.Atoi(q.Get("want"))
		// A body of the declared length in one allocation; io.ReadAll would
		// make several per report on its way there.
		outcome := make([]byte, max(0, min(r.ContentLength, 64<<20)))
		_, err4 := io.ReadFull(r.Body, outcome)
		if err := errors.Join(err1, err2, err3, err4); err != nil {
			c.writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding report: %w", err))
			return
		}
		resp, err := c.Report(r.PathValue("id"), q.Get("worker"), id, epoch, outcome, want)
		if err != nil {
			c.writeErr(w, statusOf(err), err)
			return
		}
		c.writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /cluster/runs/{id}/fail", func(w http.ResponseWriter, r *http.Request) {
		c.om.rpcs.With("fail").Inc()
		var req failRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
			c.writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding fail: %w", err))
			return
		}
		if err := c.Fail(r.PathValue("id"), req.ID, req.Epoch, req.Reason); err != nil {
			c.writeErr(w, statusOf(err), err)
			return
		}
		c.writeJSON(w, http.StatusOK, map[string]string{"status": "requeued"})
	})
	mux.HandleFunc("POST /cluster/runs/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		c.om.rpcs.With("heartbeat").Inc()
		var req heartbeatRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
			c.writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding heartbeat: %w", err))
			return
		}
		if err := c.Heartbeat(r.PathValue("id"), req.Leases); err != nil {
			c.writeErr(w, statusOf(err), err)
			return
		}
		c.writeJSON(w, http.StatusOK, map[string]string{"status": "extended"})
	})
	mux.HandleFunc("GET /cluster/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		c.om.rpcs.With("cache_get").Inc()
		key := r.PathValue("key")
		if !validMemoKey(key) {
			c.writeErr(w, http.StatusBadRequest, errors.New("cluster: memo keys are 64 lowercase hex digits"))
			return
		}
		if c.cfg.Memo == nil {
			c.writeErr(w, http.StatusNotFound, errors.New("cluster: no memo table configured"))
			return
		}
		data, ok, err := c.cfg.Memo.CacheGet(key)
		if err != nil {
			c.om.memoErrors.Inc()
			c.writeErr(w, http.StatusInternalServerError, err)
			return
		}
		if !ok {
			c.om.memoMisses.Inc()
			c.writeErr(w, http.StatusNotFound, errors.New("cluster: memo miss"))
			return
		}
		c.om.memoHits.Inc()
		w.Header().Set("Content-Type", "application/json")
		if _, werr := w.Write(data); werr != nil {
			c.cfg.Logf("cluster: writing memo %s: %v", key, werr)
		}
	})
	mux.HandleFunc("PUT /cluster/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		c.om.rpcs.With("cache_put").Inc()
		key := r.PathValue("key")
		if !validMemoKey(key) {
			c.writeErr(w, http.StatusBadRequest, errors.New("cluster: memo keys are 64 lowercase hex digits"))
			return
		}
		if c.cfg.Memo == nil {
			c.writeErr(w, http.StatusNotFound, errors.New("cluster: no memo table configured"))
			return
		}
		data, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
		if err != nil {
			c.writeErr(w, http.StatusBadRequest, err)
			return
		}
		if err := c.cfg.Memo.CachePut(key, data); err != nil {
			c.om.memoErrors.Inc()
			c.writeErr(w, http.StatusBadRequest, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

// validMemoKey accepts exactly the cache keys the service mints: 64
// lowercase hex digits (SHA-256). Anything else — path metacharacters
// above all — is rejected before it can reach the filesystem layer.
func validMemoKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		ch := key[i]
		if (ch < '0' || ch > '9') && (ch < 'a' || ch > 'f') {
			return false
		}
	}
	return true
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

// writeJSON encodes v as the response body; an encode failure this late
// is only reportable to the log.
func (c *Coordinator) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		c.cfg.Logf("cluster: writing JSON response: %v", err)
	}
}

func (c *Coordinator) writeErr(w http.ResponseWriter, status int, err error) {
	c.writeJSON(w, status, map[string]string{"error": err.Error()})
}
