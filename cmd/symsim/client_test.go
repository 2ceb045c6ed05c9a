package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"symsim/internal/httpx"
	"symsim/internal/service"
)

// TestFollowJobReconnectsWithLastEventID pins the follower's resumption
// contract: the first SSE connection is severed mid-stream after one
// event, and the reconnect must carry that event's id in Last-Event-ID so
// the server can replay exactly the missed window. The follow succeeds
// once the second connection delivers the terminal event.
func TestFollowJobReconnectsWithLastEventID(t *testing.T) {
	var conns atomic.Int32
	var resumeID atomic.Value
	mux := http.NewServeMux()
	mux.HandleFunc("GET /jobs/j1/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		switch conns.Add(1) {
		case 1:
			fmt.Fprint(w, "id: 7\nevent: state\ndata: {\"type\":\"state\",\"job\":\"j1\",\"state\":\"running\",\"seq\":7}\n\n")
			w.(http.Flusher).Flush()
			// Sever the connection abruptly, mid-stream.
			panic(http.ErrAbortHandler)
		default:
			resumeID.Store(r.Header.Get("Last-Event-ID"))
			fmt.Fprint(w, "id: 8\nevent: state\ndata: {\"type\":\"state\",\"job\":\"j1\",\"state\":\"done\",\"seq\":8}\n\n")
		}
	})
	// The between-connections job poll must say "still running", or the
	// follower would (correctly) short-circuit without reconnecting.
	mux.HandleFunc("GET /jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"id":"j1","state":"running"}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	st, err := followJob(ts.URL, "j1")
	if err != nil {
		t.Fatal(err)
	}
	if st != service.StateDone {
		t.Errorf("followJob = %s, want done", st)
	}
	if n := conns.Load(); n != 2 {
		t.Errorf("SSE connections = %d, want 2 (one severed, one resumed)", n)
	}
	if got, _ := resumeID.Load().(string); got != "7" {
		t.Errorf("Last-Event-ID on reconnect = %q, want %q", got, "7")
	}
}

// TestFollowJobFallsBackToJobAPI: the stream dies without a terminal event
// but the job API says the job finished while the client was away — the
// follower must report that instead of spinning on reconnects.
func TestFollowJobFallsBackToJobAPI(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /jobs/j1/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	})
	mux.HandleFunc("GET /jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"id":"j1","state":"done"}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	st, err := followJob(ts.URL, "j1")
	if err != nil {
		t.Fatal(err)
	}
	if st != service.StateDone {
		t.Errorf("followJob = %s, want done via job API fallback", st)
	}
}

// A transient 503 on an idempotent GET is retried with backoff; the second
// attempt's 200 wins.
func TestClientGetRetriesTransient503(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, "ok")
	}))
	defer ts.Close()
	resp, err := clientGet(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d, want 200", resp.StatusCode)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("server saw %d requests, want 2", n)
	}
}

// A non-retryable status is returned as-is, not retried: only transient
// refusals (429/502/503/504) burn the retry budget.
func TestClientGetDoesNotRetryHardErrors(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusNotFound)
	}))
	defer ts.Close()
	resp, err := clientGet(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("server saw %d requests, want 1 (404 is not transient)", n)
	}
}

// Submission is not idempotent: a transport error (the request may have
// been accepted before the connection died) must never be retried.
func TestPostOnceNeverRetriesTransportError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := ts.URL
	ts.Close() // every dial now fails: a pure transport error
	builds := 0
	_, err := postOnce(func() (*http.Request, error) {
		builds++
		return http.NewRequest(http.MethodPost, url, nil)
	})
	if err == nil {
		t.Fatal("postOnce against a dead server succeeded")
	}
	if builds != 1 {
		t.Errorf("request built %d times, want 1 (no retry on transport error)", builds)
	}
}

// A received 429/503 means the server refused before accepting — safe to
// retry even for submission.
func TestPostOnceRetriesRefusedSubmission(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	}))
	defer ts.Close()
	resp, err := postOnce(func() (*http.Request, error) {
		return http.NewRequest(http.MethodPost, ts.URL, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("status = %d, want 202", resp.StatusCode)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("server saw %d requests, want 2", n)
	}
}

// backoff stays within [base/2, cap] for every retry index and jitters —
// a burst of bounced clients must not reconverge in lockstep.
func TestBackoffBoundsAndJitter(t *testing.T) {
	for n := 0; n < 12; n++ {
		uncapped := httpx.RetryBase << uint(n)
		if uncapped > httpx.RetryMaxDelay || uncapped < 0 {
			uncapped = httpx.RetryMaxDelay
		}
		for i := 0; i < 200; i++ {
			d := httpx.Backoff(n)
			if d < uncapped/2 || d > uncapped {
				t.Fatalf("backoff(%d) = %v outside [%v, %v]", n, d, uncapped/2, uncapped)
			}
		}
	}
	seen := map[int64]bool{}
	for i := 0; i < 50; i++ {
		seen[int64(httpx.Backoff(3))] = true
	}
	if len(seen) < 2 {
		t.Error("backoff(3) returned a constant 50 times: jitter missing")
	}
}

// Every tuning flag of the shared vocabulary reaches the server: submit
// builds its body with the mapping the daemon applies to its own defaults,
// so a flag cannot be known to one and dropped by the other (-lanes was).
func TestSubmitSendsLanes(t *testing.T) {
	var body atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		body.Store(string(b))
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"j1","state":"queued"}`)
	}))
	defer ts.Close()
	if code := submitCmd([]string{"-server", ts.URL, "-design", "dr5", "-bench", "tea8", "-engine", "batch", "-lanes", "8"}); code != 0 {
		t.Fatalf("submit exited %d", code)
	}
	got, _ := body.Load().(string)
	for _, want := range []string{`"lanes":8`, `"engine":"batch"`, `"design":"dr5"`, `"bench":"tea8"`} {
		if !strings.Contains(got, want) {
			t.Errorf("submitted spec %s lacks %s", got, want)
		}
	}
}
