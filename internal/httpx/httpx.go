// Package httpx is the one place symsim constructs HTTP clients, and the
// one place its two servers read and write JSON bodies. The
// zero-value http.Client never times out, so a dead server used to hang
// every subcommand forever; the PR-7 hardening fixed that for cmd/symsim,
// and this package hoists the hardened clients so the cluster worker
// shares the exact same transport discipline (and the same connection
// pool) instead of minting fresh zero-timeout clients next to every new
// endpoint.
package httpx

import (
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"time"
)

// Unary serves request/response calls. The overall timeout bounds a
// wedged server: no single call may take longer. Shared by `symsim
// submit` and the cluster worker's lease/report/heartbeat RPCs — one
// client, one pool, one timeout policy.
var Unary = &http.Client{
	Timeout:   30 * time.Second,
	Transport: NewTransport(),
}

// Stream serves long-lived streams (SSE), where an overall timeout would
// sever healthy streams: only the dial and response-header phases are
// bounded. Liveness on an established stream comes from server
// keep-alives severing dead TCP paths.
var Stream = &http.Client{Transport: NewTransport()}

// NewTransport returns the hardened transport both shared clients use:
// bounded dial, bounded response-header wait, recycled idle connections.
func NewTransport() *http.Transport {
	return &http.Transport{
		DialContext:           (&net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		ResponseHeaderTimeout: 10 * time.Second,
		IdleConnTimeout:       90 * time.Second,
		// The whole process talks to ONE coordinator/daemon host, and the
		// stdlib default of 2 idle connections per host closes and redials
		// a TCP connection for nearly every RPC once a few worker slots
		// issue observes concurrently. Keep enough warm connections for a
		// full fleet's RPC fan-in.
		MaxIdleConns:        128,
		MaxIdleConnsPerHost: 32,
	}
}

// Retry policy shared by every caller of Do.
const (
	// RetryAttempts is the total number of tries (first + retries).
	RetryAttempts = 4
	// RetryBase and RetryMaxDelay bound Backoff's exponential schedule.
	RetryBase     = 200 * time.Millisecond
	RetryMaxDelay = 3 * time.Second
)

// Backoff returns the delay before retry n (0-based): exponential growth
// capped at retryMaxDelay, with ±50% jitter so a burst of clients bounced
// by the same outage doesn't reconverge in lockstep.
func Backoff(n int) time.Duration {
	d := RetryBase << uint(n)
	if d > RetryMaxDelay {
		d = RetryMaxDelay
	}
	half := int64(d) / 2
	return time.Duration(half + rand.Int63n(half+1))
}

// RetryStatus reports whether an HTTP status signals a transient refusal
// worth retrying: backpressure (429) or an unavailable/intermediary-down
// server (502/503/504).
func RetryStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Do issues the request build returns on c, making up to RetryAttempts
// tries with a jittered Backoff between them. A response whose status
// RetryStatus accepts is tried again — the server refused before it
// accepted anything — and the last try's response is returned whatever its
// status. A transport error is tried again only when retryTransport is set:
// leave it unset for a request that must not reach the server twice, since
// the failed try may have. onRetry, when non-nil, hears the cause and the
// wait before each further try.
func Do(c *http.Client, build func() (*http.Request, error), retryTransport bool, onRetry func(cause error, wait time.Duration)) (*http.Response, error) {
	var lastErr error
	for n := 0; n < RetryAttempts; n++ {
		if n > 0 {
			d := Backoff(n - 1)
			if onRetry != nil {
				onRetry(lastErr, d)
			}
			time.Sleep(d)
		}
		req, err := build()
		if err != nil {
			return nil, err
		}
		resp, err := c.Do(req)
		switch {
		case err != nil && !retryTransport:
			return nil, err
		case err != nil:
			lastErr = err
		case RetryStatus(resp.StatusCode) && n < RetryAttempts-1:
			_ = resp.Body.Close()
			lastErr = fmt.Errorf("server: %s", resp.Status)
		default:
			return resp, nil
		}
	}
	return nil, lastErr
}

// ReadJSON decodes a request's JSON body into v, reading at most 1 MiB of
// it: no request this tree defines comes near that, and an unbounded body
// is memory a stranger controls. On failure it answers 400 and reports
// false.
func ReadJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(v); err != nil {
		WriteErr(w, http.StatusBadRequest, fmt.Errorf("decoding request body: %w", err))
		return false
	}
	return true
}

// WriteJSON answers status with v as the JSON body. An encode error this
// late is unreportable to the client (the status line is already gone),
// so it lands in the process log instead of vanishing.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("httpx: writing JSON response: %v", err)
	}
}

// WriteErr answers status with err as an {"error": ...} body.
func WriteErr(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}
