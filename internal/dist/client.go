package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Client is the coordinator's job-side API: submit scenario runs, wait
// for them to complete. cmd/gtwrun's -connect mode and the test suite
// drive coordinators through it.
type Client struct {
	// Base is the coordinator URL, e.g. "http://127.0.0.1:9191".
	Base string
	// Token authenticates against a multi-tenant coordinator (gtwd
	// -tenants); sent as "Authorization: Bearer <token>" on every
	// request. Empty sends no header (fine for tenantless coordinators).
	Token string
	// HTTP is the client to use (default: 30s-timeout client).
	HTTP *http.Client
	// Poll paces Wait against a coordinator that answers a wait early
	// (default 100ms); against one that holds it, Wait never sleeps.
	Poll time.Duration
}

// defaultHTTPClient serves Clients and Workers that did not bring
// their own; a shared value keeps concurrent use race-free.
var defaultHTTPClient = &http.Client{Timeout: 30 * time.Second}

// doJSON is the one HTTP round trip Clients and Workers share: send in
// as a JSON body (nil: none) with the bearer token (empty: no header)
// through hc (nil: the default client), and decode a 200 reply into out
// (nil: discard it). It returns the status code; 400 and above is an
// error carrying the start of the response body.
func doJSON(ctx context.Context, hc *http.Client, token, method, base, path string, in, out any) (int, error) {
	if hc == nil {
		hc = defaultHTTPClient
	}
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, body)
	if err != nil {
		return 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode >= 400:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, fmt.Errorf("dist: %s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	case resp.StatusCode == http.StatusOK && out != nil:
		if st, ok := out.(*JobStatus); ok {
			return resp.StatusCode, readJobStatusBody(resp, st)
		}
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode, nil
}

// readJobStatusBody decodes a JobStatus reply with decodeJobStatus,
// which keeps the report as the exact bytes the coordinator sent.
func readJobStatusBody(resp *http.Response, st *JobStatus) error {
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	*st, err = decodeJobStatus(bytes.TrimRight(b, " \t\r\n"))
	return err
}

// do is doJSON for the job-side endpoints, which answer 200 or fail.
func (cl *Client) do(ctx context.Context, method, path string, in, out any) error {
	code, err := doJSON(ctx, cl.HTTP, cl.Token, method, cl.Base, path, in, out)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("dist: %s %s: unexpected status %d", method, path, code)
	}
	return err
}

// Submit posts a job and returns its (possibly already finished)
// status.
func (cl *Client) Submit(ctx context.Context, req JobRequest) (*JobStatus, error) {
	var st JobStatus
	if err := cl.do(ctx, http.MethodPost, "/v1/jobs", req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Job fetches a job's current status.
func (cl *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := cl.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// parkWait is the wait_ms Clients and Workers send through hc: how long
// the coordinator may hold a request that has nothing to answer yet —
// ten seconds, or half hc's whole-request timeout when that is shorter,
// so a held request is answered before its own client gives up on it.
func parkWait(hc *http.Client) time.Duration {
	d := 10 * time.Second
	if hc != nil && hc.Timeout > 0 {
		d = min(d, hc.Timeout/2)
	}
	return d
}

// Wait blocks until the job is terminal or ctx ends. Each request asks
// the coordinator to hold it until then (?wait_ms), so a finished job
// comes back, report included, in the one request that waited for it.
// An early, non-terminal answer came from a coordinator that ignores
// wait_ms or is shutting down: only then does Wait sleep Poll.
func (cl *Client) Wait(ctx context.Context, id string) (*JobStatus, error) {
	poll := cl.Poll
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	wait := parkWait(cl.HTTP)
	held := fmt.Sprintf("%s?wait_ms=%d", id, wait.Milliseconds()) // Job appends it to the path
	for {
		asked := time.Now()
		st, err := cl.Job(ctx, held)
		if err != nil || st.Status == JobDone || st.Status == JobFailed {
			return st, err
		}
		if time.Since(asked) < wait && !sleepCtx(ctx, poll) {
			return nil, ctx.Err()
		}
	}
}

// WaitStream is Wait, under the name it had when waiting meant
// consuming /v1/events; the callback is never invoked.
//
// Deprecated: use Wait.
func (cl *Client) WaitStream(ctx context.Context, id string, _ func(error)) (*JobStatus, error) {
	return cl.Wait(ctx, id)
}

// Status fetches the coordinator snapshot.
func (cl *Client) Status(ctx context.Context) (*StatusReply, error) {
	var st StatusReply
	if err := cl.do(ctx, http.MethodGet, "/v1/status", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}
