package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
)

func TestUnknownFlagExits2(t *testing.T) {
	var stderr bytes.Buffer
	if code := run(context.Background(), []string{"-no-such-flag"}, &stderr); code != 2 {
		t.Errorf("exit %d, want the usage error 2; stderr: %s", code, stderr.String())
	}
}

// A coordinator that speaks another worker protocol refuses the
// register with 400. Retrying cannot help, so the worker exits 1 and
// says which protocol each side speaks.
func TestProtocolMismatchExits1NamingBothProtocols(t *testing.T) {
	var theirs atomic.Int64 // written by the handler, read by the test
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/workers/register" {
			http.NotFound(w, r)
			return
		}
		var req dist.RegisterRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		theirs.Store(int64(req.Proto) + 1)
		http.Error(w, fmt.Sprintf("worker speaks protocol %d, this coordinator %d", req.Proto, req.Proto+1), http.StatusBadRequest)
	}))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var stderr bytes.Buffer
	if code := run(ctx, []string{"-coordinator", srv.URL, "-id", "w1"}, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr.String())
	}
	out := stderr.String()
	for _, want := range []string{
		fmt.Sprintf("speaks protocol %d,", theirs.Load()-1),
		fmt.Sprintf("this coordinator %d", theirs.Load()),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stderr lacks %q:\n%s", want, out)
		}
	}
}

// A cancelled context is a clean stop (SIGINT/SIGTERM in main).
func TestCancelledContextExits0(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stderr bytes.Buffer
	if code := run(ctx, []string{"-coordinator", "http://127.0.0.1:1", "-id", "w1"}, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "gtwworker: ") || !strings.Contains(stderr.String(), "worker w1 stopped") {
		t.Errorf("stderr lacks the stop line:\n%s", stderr.String())
	}
}
