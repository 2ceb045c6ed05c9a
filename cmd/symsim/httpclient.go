package main

import (
	"fmt"
	"net/http"
	"os"
	"time"

	"symsim/internal/httpx"
)

// The client's transport hardening lives in internal/httpx: one unary
// client with a real timeout (the zero-value default client never times
// out, so a dead server used to hang every subcommand forever) shared with
// the cluster worker's pull RPCs, one stream client for SSE, and the one
// retry loop. This file says which requests may be repeated.

// logRetry tells the user why a request is being tried again.
func logRetry(cause error, wait time.Duration) {
	fmt.Fprintf(os.Stderr, "symsim: %v, retrying in %v\n", cause, wait.Round(time.Millisecond))
}

// doIdempotent issues the request built by build, retrying on transport
// errors and retryable statuses. Only requests that are safe to repeat
// belong here (GETs, and cancel — requesting a stop twice stops the job
// once).
func doIdempotent(build func() (*http.Request, error)) (*http.Response, error) {
	return httpx.Do(httpx.Unary, build, true, logRetry)
}

// clientGet is doIdempotent over a plain GET.
func clientGet(url string) (*http.Response, error) {
	return doIdempotent(func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, url, nil)
	})
}

// postIdempotent is doIdempotent over a bodyless POST — used for cancel,
// which the server treats idempotently.
func postIdempotent(url string) (*http.Response, error) {
	return doIdempotent(func() (*http.Request, error) {
		return http.NewRequest(http.MethodPost, url, nil)
	})
}

// postOnce issues a non-idempotent POST (job submission). A transport
// error is never retried — the request may have been accepted and a retry
// would submit a duplicate job — but a received 429/503 means the server
// refused before accepting, which is safe to retry with backoff.
func postOnce(build func() (*http.Request, error)) (*http.Response, error) {
	return httpx.Do(httpx.Unary, build, false, logRetry)
}
