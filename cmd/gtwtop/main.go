// Command gtwtop is the control plane's top(1): it connects to a gtwd
// coordinator and renders live jobs, workers, point throughput, store
// hit rates, and per-tenant usage from /v1/status and /v1/metrics,
// with job/worker/lease transitions tailed from the /v1/events SSE
// stream between snapshots.
//
// Usage:
//
//	gtwtop [-coordinator http://host:9191] [-token TOK]
//	       [-refresh 2s] [-once]
//
// -once prints a single snapshot and exits (CI-friendly); the default
// mode reprints the snapshot every -refresh and interleaves streamed
// events. Against a gtwd started with -tenants, -token must carry a
// configured tenant token. (The testbed topology this command once
// printed is in `gtwrun -list` and internal/core's tests.)
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/dist"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main: it parses args, renders to stdout,
// complains to stderr and reports the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gtwtop", flag.ContinueOnError)
	fs.SetOutput(stderr)
	coord := fs.String("coordinator", "http://127.0.0.1:9191", "coordinator base URL")
	token := fs.String("token", "", "tenant token for a -tenants coordinator (Authorization: Bearer)")
	refresh := fs.Duration("refresh", 2*time.Second, "snapshot interval")
	once := fs.Bool("once", false, "print one snapshot and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	cl := &dist.Client{Base: *coord, Token: *token}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if err := snapshot(ctx, cl, stdout); err != nil {
		fmt.Fprintf(stderr, "gtwtop: %v\n", err)
		return 1
	}
	if *once {
		return 0
	}

	go tailEvents(ctx, *coord, *token, stdout, stderr)
	tick := time.NewTicker(*refresh)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return 0
		case <-tick.C:
			if err := snapshot(ctx, cl, stdout); err != nil {
				fmt.Fprintf(stderr, "gtwtop: snapshot: %v\n", err)
			}
		}
	}
}

// snapshot renders one /v1/status + /v1/metrics dashboard frame.
func snapshot(ctx context.Context, cl *dist.Client, out io.Writer) error {
	st, err := cl.Status(ctx)
	if err != nil {
		return err
	}
	met, _ := scrape(ctx, cl) // best-effort: older coordinators lack /v1/metrics

	fmt.Fprintf(out, "--- %s  %s ---\n", time.Now().Format("15:04:05"), cl.Base)
	fmt.Fprintf(out, "jobs: %d tracked", st.Jobs)
	if met != nil {
		fmt.Fprintf(out, "  (running %.0f, queued %.0f, done %.0f, failed %.0f; leases granted %.0f, expired %.0f)",
			met["gtw_jobs_running"], met["gtw_jobs_queued"],
			met[`gtw_jobs_completed_total{status="done"}`], met[`gtw_jobs_completed_total{status="failed"}`],
			met["gtw_leases_granted_total"], met["gtw_leases_expired_total"])
	}
	fmt.Fprintln(out)

	fmt.Fprintf(out, "workers: %d", len(st.Workers))
	if met != nil {
		fmt.Fprintf(out, "  (%.0f parked waiting for work; lease asks granted %.0f, empty %.0f)",
			met["gtw_lease_parked"],
			met[`gtw_lease_asks_total{result="granted"}`], met[`gtw_lease_asks_total{result="empty"}`])
	}
	fmt.Fprintln(out)
	for _, w := range st.Workers {
		fmt.Fprintf(out, "  %-20s %8d pts  %8.1f pts/s  seen %5.1fs ago\n",
			w.ID, w.Points, w.RatePPS, float64(w.LastSeenMSAgo)/1000)
	}

	lookups := st.StoreHits + st.StoreMisses
	hitRate := 0.0
	if lookups > 0 {
		hitRate = 100 * float64(st.StoreHits) / float64(lookups)
	}
	fmt.Fprintf(out, "store: %d/%d points, %s", st.StorePoints, st.StoreCap, formatBytes(st.StoreBytes))
	if st.StoreBytesCap > 0 {
		fmt.Fprintf(out, " of %s", formatBytes(st.StoreBytesCap))
	}
	fmt.Fprintf(out, ", hits %d/%d (%.1f%%), evictions %d, rejected %d\n",
		st.StoreHits, lookups, hitRate, st.StoreEvictions, st.StoreRejected)

	if len(st.Tenants) > 0 {
		fmt.Fprintf(out, "tenants:\n  %-12s %-7s %6s %9s %6s %9s %9s %9s %10s %8s\n",
			"name", "class", "weight", "inflight", "jobs", "run", "hit", "streamed", "bytes", "rejected")
		for _, t := range st.Tenants {
			inflight := strconv.Itoa(t.InFlight)
			if t.MaxInFlight > 0 {
				inflight += "/" + strconv.Itoa(t.MaxInFlight)
			}
			fmt.Fprintf(out, "  %-12s %-7s %6.0f %9s %6d %9d %9d %9d %10s %8d\n",
				t.Name, t.Class, t.Weight, inflight, t.JobsSubmitted,
				t.PointsRun, t.PointsHit, t.PointsStreamed,
				formatBytes(t.StoreBytes), t.StoreRejected)
		}
	}
	return nil
}

// scrape pulls /v1/metrics and parses the sample lines into
// series-with-labels -> value.
func scrape(ctx context.Context, cl *dist.Client) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.Base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	if cl.Token != "" {
		req.Header.Set("Authorization", "Bearer "+cl.Token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: %s", resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// tailEvents follows /v1/events, printing one line per transition
// between snapshots. Stream errors are retried until ctx ends — the
// periodic snapshots keep working regardless.
func tailEvents(ctx context.Context, base, token string, out, stderr io.Writer) {
	for ctx.Err() == nil {
		if err := tailOnce(ctx, base, token, out); err != nil && ctx.Err() == nil {
			fmt.Fprintf(stderr, "gtwtop: event stream: %v (retrying)\n", err)
			select {
			case <-time.After(time.Second):
			case <-ctx.Done():
			}
		}
	}
}

func tailOnce(ctx context.Context, base, token string, out io.Writer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := (&http.Client{}).Do(req) // no timeout: long-lived stream
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /v1/events: %s", resp.Status)
	}
	if err := printStream(resp.Body, out); err != nil {
		return err
	}
	return errors.New("stream closed")
}

// printStream reads SSE frames until the stream ends and prints each
// event that parses. A frame is dispatched by the blank line that ends
// it, its data: lines joined by newlines; comment and event: lines carry
// nothing the payload does not; a frame the stream cut short is dropped.
func printStream(r io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var data []string
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "data:"); ok {
			data = append(data, strings.TrimPrefix(rest, " "))
		}
		if line != "" || len(data) == 0 {
			continue
		}
		var ev dist.Event
		if json.Unmarshal([]byte(strings.Join(data, "\n")), &ev) == nil {
			printEvent(out, ev)
		}
		data = data[:0]
	}
	return sc.Err()
}

func printEvent(out io.Writer, ev dist.Event) {
	at := time.UnixMilli(ev.TimeMS).Format("15:04:05")
	switch ev.Type {
	case "job":
		line := fmt.Sprintf("%s  job %s (%s) %s", at, ev.Job, ev.Scenario, ev.Status)
		if ev.Tenant != "" {
			line += "  tenant=" + ev.Tenant
		}
		if ev.Error != "" {
			line += "  error=" + ev.Error
		}
		fmt.Fprintln(out, line)
	case "points":
		fmt.Fprintf(out, "%s  job %s %d/%d points\n", at, ev.Job, ev.PointsDone, ev.PointsTotal)
	case "worker":
		fmt.Fprintf(out, "%s  worker %s registered\n", at, ev.Worker)
	case "lease":
		fmt.Fprintf(out, "%s  lease expired on job %s (worker %s), %d point(s) requeued\n",
			at, ev.Job, ev.Worker, ev.Requeued)
	}
}

func formatBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
