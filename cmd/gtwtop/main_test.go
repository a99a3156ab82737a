package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	_ "repro" // register the paper's scenarios

	"repro/internal/dist"
)

// -once against a live coordinator renders the four blocks of the
// dashboard from /v1/status and /v1/metrics and exits 0.
func TestOnceRendersSnapshot(t *testing.T) {
	c := dist.New(dist.Config{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl := &dist.Client{Base: srv.URL}
	st, err := cl.Submit(ctx, dist.JobRequest{Scenario: "table1-model"})
	if err == nil {
		st, err = cl.Wait(ctx, st.ID)
	}
	if err != nil || st.Status != dist.JobDone {
		t.Fatalf("seed job: %v / %+v", err, st)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-coordinator", srv.URL, "-once"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"--- ", srv.URL,
		"jobs: 1 tracked  (running 0, queued 0, done 1, failed 0; leases granted 0, expired 0)",
		"workers: 0  (0 parked waiting for work; lease asks granted 0, empty 0)",
		"store: 1/4096 points, ", ", hits 0/2 (0.0%), evictions 0, rejected 0",
		"tenants:\n  name ", "\n  default      normal       2         0      1         1         0         0 ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot lacks %q:\n%s", want, out)
		}
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr: %s", stderr.String())
	}
}

func TestUnreachableCoordinatorAndBadFlagFail(t *testing.T) {
	srv := httptest.NewServer(nil)
	srv.Close() // a URL nothing listens on
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-coordinator", srv.URL, "-once"}, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "gtwtop: ") {
		t.Errorf("unreachable coordinator: exit %d, stderr %q; want 1 and a message", code, stderr.String())
	}
	if code := run([]string{"-topology"}, &stdout, &stderr); code != 2 {
		t.Errorf("removed flag -topology: exit %d, want the usage error 2", code)
	}
}

// The event tail over SSE framings a real stream produces.
func TestPrintStreamFramings(t *testing.T) {
	const job = `{"type":"job","t":0,"job":"job-3","scenario":"figure1-throughput","status":"done","tenant":"climate"}`
	jobLine := time.UnixMilli(0).Format("15:04:05") + "  job job-3 (figure1-throughput) done  tenant=climate\n"
	for _, tc := range []struct {
		name, stream, want string
	}{
		{"one frame", "event: job\ndata: " + job + "\n\n", jobLine},
		{"data split across lines", "data: " + job[:14] + "\ndata:" + job[14:] + "\n\n", jobLine}, // between two members
		{"comments and retry lines", ": gtwd events\nretry: 1000\n\n: ping\n\ndata: " + job + "\n\n: ping\n\n", jobLine},
		{"two frames", "data: " + job + "\n\ndata: {\"type\":\"worker\",\"t\":0,\"worker\":\"w-1\"}\n\n",
			jobLine + time.UnixMilli(0).Format("15:04:05") + "  worker w-1 registered\n"},
		{"frame cut mid-line", "data: " + job + "\n\ndata: " + job[:40], jobLine},
		{"frame cut before its blank line", "data: " + job + "\n", ""},
		{"payload that is not an event", "data: not json\n\ndata: " + job + "\n\n", jobLine},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := printStream(strings.NewReader(tc.stream), &out); err != nil {
				t.Fatal(err)
			}
			if out.String() != tc.want {
				t.Errorf("printed %q, want %q", out.String(), tc.want)
			}
		})
	}
}
