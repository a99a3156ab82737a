package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Client is the coordinator's job-side API: submit scenario runs, poll
// them to completion. cmd/gtwrun's -connect mode and the test suite
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
	// Poll is the job-poll interval (default 100ms).
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
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode, nil
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

// Wait polls the job until it reaches a terminal state or ctx ends.
func (cl *Client) Wait(ctx context.Context, id string) (*JobStatus, error) {
	poll := cl.Poll
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		st, err := cl.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.Status == JobDone || st.Status == JobFailed {
			return st, nil
		}
		if !sleepCtx(ctx, poll) {
			return nil, ctx.Err()
		}
	}
}

// streamHTTP builds the dedicated client for /v1/events: the regular
// request client enforces a whole-request timeout, which would kill a
// long-lived stream mid-job, so the stream reuses its transport but
// drops the deadline (lifetime is governed by ctx instead).
func (cl *Client) streamHTTP() *http.Client {
	sc := &http.Client{}
	if cl.HTTP != nil {
		sc.Transport = cl.HTTP.Transport
	}
	return sc
}

// WaitStream waits for a job by consuming the coordinator's /v1/events
// SSE stream, falling back to plain polling (Wait) if the stream
// cannot be opened or dies mid-job; onFallback, when non-nil, observes
// the error that triggered the fallback. The subscribe-then-poll race is
// closed by order of operations: the server writes an opening comment
// the moment the subscription is live, and WaitStream re-polls the job
// after reading it — any transition before the subscription was live
// is caught by that poll, and any transition after it arrives on the
// stream (or visibly breaks it, triggering the fallback).
func (cl *Client) WaitStream(ctx context.Context, id string, onFallback func(error)) (*JobStatus, error) {
	if st, err := cl.Job(ctx, id); err != nil {
		return nil, err
	} else if st.Status == JobDone || st.Status == JobFailed {
		return st, nil
	}
	fallback := func(cause error) (*JobStatus, error) {
		if onFallback != nil {
			onFallback(cause)
		}
		return cl.Wait(ctx, id)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.Base+"/v1/events", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if cl.Token != "" {
		req.Header.Set("Authorization", "Bearer "+cl.Token)
	}
	resp, err := cl.streamHTTP().Do(req)
	if err != nil {
		return fallback(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fallback(fmt.Errorf("dist: GET /v1/events: %s: %s", resp.Status, bytes.TrimSpace(msg)))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	// The server's first line is the opening comment — once read, the
	// subscription is live and the re-poll below closes the race.
	if !sc.Scan() {
		return fallback(fmt.Errorf("dist: event stream closed before the opening comment: %w", sc.Err()))
	}
	if st, err := cl.Job(ctx, id); err != nil {
		return nil, err
	} else if st.Status == JobDone || st.Status == JobFailed {
		return st, nil
	}
	var data strings.Builder
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			var ev Event
			if data.Len() > 0 && json.Unmarshal([]byte(data.String()), &ev) == nil &&
				ev.Type == "job" && ev.Job == id &&
				(ev.Status == JobDone || ev.Status == JobFailed) {
				// Terminal transition seen: fetch the full status (the
				// event carries no report bytes).
				return cl.Job(ctx, id)
			}
			data.Reset()
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimSpace(strings.TrimPrefix(line, "data:")))
		}
	}
	err = sc.Err()
	if err == nil {
		err = io.ErrUnexpectedEOF // server dropped the stream mid-job
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return fallback(err)
}

// Run submits a job and waits for it.
func (cl *Client) Run(ctx context.Context, req JobRequest) (*JobStatus, error) {
	st, err := cl.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	if st.Status == JobDone || st.Status == JobFailed {
		return st, nil
	}
	return cl.Wait(ctx, st.ID)
}

// Status fetches the coordinator snapshot.
func (cl *Client) Status(ctx context.Context) (*StatusReply, error) {
	var st StatusReply
	if err := cl.do(ctx, http.MethodGet, "/v1/status", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}
