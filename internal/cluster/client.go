package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"symsim/internal/httpx"
)

// coordClient speaks the /cluster wire protocol. Every request goes
// through the shared hardened unary client (internal/httpx): a real
// overall timeout and jittered retry backoff — never a zero-timeout
// default client. The RPCs it retries are all idempotent at the
// coordinator: a replayed report of the epoch that settled the segment is
// acknowledged without absorbing it twice, and a replayed fail of a
// segment already put back bounces off the epoch fence.
type coordClient struct {
	base string
	hc   *http.Client
}

func newCoordClient(base string, hc *http.Client) *coordClient {
	if hc == nil {
		hc = httpx.Unary
	}
	return &coordClient{base: strings.TrimRight(base, "/"), hc: hc}
}

// call issues one request with idempotent-retry semantics and maps the
// protocol statuses back to the package errors. in is the JSON request
// body, or a []byte sent as it is; a 200 body is JSON-decoded into out. A
// 204 returns (204, nil) with out untouched.
func (cc *coordClient) call(method, path string, in, out any) (int, error) {
	body, raw := in.([]byte)
	if in != nil && !raw {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return 0, err
		}
	}
	resp, err := httpx.Do(cc.hc, func() (*http.Request, error) {
		var rd io.Reader
		if in != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, cc.base+path, rd)
		if err != nil {
			return nil, err
		}
		switch {
		case raw:
			req.Header.Set("Content-Type", "application/octet-stream")
		case in != nil:
			req.Header.Set("Content-Type", "application/json")
		}
		return req, nil
	}, true, nil)
	if err != nil {
		return 0, err
	}
	return cc.finish(resp, out)
}

// finish consumes one response: decodes 200 bodies into out and maps
// error statuses onto the package sentinels.
func (cc *coordClient) finish(resp *http.Response, out any) (int, error) {
	defer func() { _ = resp.Body.Close() }()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusCreated:
		if out == nil {
			return resp.StatusCode, nil
		}
		return resp.StatusCode, json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(out)
	case http.StatusNoContent:
		return resp.StatusCode, nil
	case http.StatusConflict:
		return resp.StatusCode, ErrStale
	case http.StatusNotFound:
		return resp.StatusCode, ErrUnknownRun
	case http.StatusServiceUnavailable:
		return resp.StatusCode, ErrClosed
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	return resp.StatusCode, fmt.Errorf("cluster: server: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
}

// lease long-polls for work for one slot; ok is false when the coordinator
// had none within its poll window.
func (cc *coordClient) lease(worker string) (*leaseResponse, bool, error) {
	var ls leaseResponse
	status, err := cc.call(http.MethodPost, "/cluster/lease", leaseRequest{Worker: worker}, &ls)
	if err != nil {
		return nil, false, err
	}
	if status == http.StatusNoContent {
		return nil, false, nil
	}
	return &ls, true, nil
}

// report settles a segment and returns the slot's next work. The outcome
// is the request body as it is — it is the bulk of the fleet's traffic, and
// base64 inside JSON cost more than the settle it carried — with the lease
// it belongs to in the query.
func (cc *coordClient) report(runID, worker string, id, epoch int, outcome []byte, want int) (*reportResponse, error) {
	q := url.Values{
		"worker": {worker},
		"path":   {strconv.Itoa(id)},
		"epoch":  {strconv.Itoa(epoch)},
		"want":   {strconv.Itoa(want)},
	}
	var resp reportResponse
	_, err := cc.call(http.MethodPost, "/cluster/runs/"+url.PathEscape(runID)+"/report?"+q.Encode(), outcome, &resp)
	return &resp, err
}

// fail hands a segment back for another attempt.
func (cc *coordClient) fail(runID string, id, epoch int, reason string) error {
	_, err := cc.call(http.MethodPost, "/cluster/runs/"+url.PathEscape(runID)+"/fail",
		failRequest{ID: id, Epoch: epoch, Reason: reason}, nil)
	return err
}

// heartbeat extends leases. Single attempt, best effort: a missed beat
// only matters if every beat inside the TTL misses, and by then the lease
// SHOULD lapse.
func (cc *coordClient) heartbeat(runID string, refs []leaseRef) error {
	body, err := json.Marshal(heartbeatRequest{Leases: refs})
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, cc.base+"/cluster/runs/"+url.PathEscape(runID)+"/heartbeat", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cc.hc.Do(req)
	if err != nil {
		return err
	}
	status, err := cc.finish(resp, nil)
	if err == nil && status != http.StatusOK {
		return fmt.Errorf("cluster: heartbeat: status %d", status)
	}
	return err
}
