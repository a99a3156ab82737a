// Command gtwtop is the control plane's top(1): it connects to a gtwd
// coordinator and renders live jobs, workers, point throughput, store
// hit rates, and per-tenant usage from /v1/status and /v1/metrics,
// with job/worker/lease transitions tailed from the /v1/events SSE
// stream between snapshots.
//
// Usage:
//
//	gtwtop [-coordinator http://host:9191] [-token TOK]
//	       [-refresh 2s] [-once] [-topology]
//
// -once prints a single snapshot and exits (CI-friendly); the default
// mode reprints the snapshot every -refresh and interleaves streamed
// events. Against a gtwd started with -tenants, -token must carry a
// configured tenant token.
//
// -topology restores this command's original job — printing and
// validating the testbed topology (hosts, path MTUs, RTTs; a textual
// Figure 1) without contacting any coordinator.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	gtw "repro"

	"repro/internal/dist"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gtwtop: ")
	coord := flag.String("coordinator", "http://127.0.0.1:9191", "coordinator base URL")
	token := flag.String("token", "", "tenant token for a -tenants coordinator (Authorization: Bearer)")
	refresh := flag.Duration("refresh", 2*time.Second, "snapshot interval")
	once := flag.Bool("once", false, "print one snapshot and exit")
	topology := flag.Bool("topology", false, "print the testbed topology instead of connecting to a coordinator")
	ext := flag.Bool("extensions", false, "with -topology: include the section-5 extension sites")
	oc12 := flag.Bool("oc12", false, "with -topology: use the 1997/98 OC-12 backbone instead of OC-48")
	flag.Parse()

	if *topology {
		printTopology(*ext, *oc12)
		return
	}

	cl := &dist.Client{Base: *coord, Token: *token}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if err := snapshot(ctx, cl); err != nil {
		log.Fatal(err)
	}
	if *once {
		return
	}

	go tailEvents(ctx, *coord, *token)
	tick := time.NewTicker(*refresh)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			if err := snapshot(ctx, cl); err != nil {
				log.Printf("snapshot: %v", err)
			}
		}
	}
}

// snapshot renders one /v1/status + /v1/metrics dashboard frame.
func snapshot(ctx context.Context, cl *dist.Client) error {
	st, err := cl.Status(ctx)
	if err != nil {
		return err
	}
	met, _ := scrape(ctx, cl) // best-effort: older coordinators lack /v1/metrics

	fmt.Printf("--- %s  %s ---\n", time.Now().Format("15:04:05"), cl.Base)
	fmt.Printf("jobs: %d tracked", st.Jobs)
	if met != nil {
		fmt.Printf("  (running %.0f, queued %.0f, done %.0f, failed %.0f; leases granted %.0f, expired %.0f)",
			met["gtw_jobs_running"], met["gtw_jobs_queued"],
			met[`gtw_jobs_completed_total{status="done"}`], met[`gtw_jobs_completed_total{status="failed"}`],
			met["gtw_leases_granted_total"], met["gtw_leases_expired_total"])
	}
	fmt.Println()

	fmt.Printf("workers: %d", len(st.Workers))
	if met != nil {
		fmt.Printf("  (%.0f parked waiting for work; lease asks granted %.0f, empty %.0f)",
			met["gtw_lease_parked"],
			met[`gtw_lease_asks_total{result="granted"}`], met[`gtw_lease_asks_total{result="empty"}`])
	}
	fmt.Println()
	for _, w := range st.Workers {
		fmt.Printf("  %-20s %8d pts  %8.1f pts/s  seen %5.1fs ago\n",
			w.ID, w.Points, w.RatePPS, float64(w.LastSeenMSAgo)/1000)
	}

	lookups := st.StoreHits + st.StoreMisses
	hitRate := 0.0
	if lookups > 0 {
		hitRate = 100 * float64(st.StoreHits) / float64(lookups)
	}
	fmt.Printf("store: %d/%d points, %s", st.StorePoints, st.StoreCap, formatBytes(st.StoreBytes))
	if st.StoreBytesCap > 0 {
		fmt.Printf(" of %s", formatBytes(st.StoreBytesCap))
	}
	fmt.Printf(", hits %d/%d (%.1f%%), evictions %d, rejected %d\n",
		st.StoreHits, lookups, hitRate, st.StoreEvictions, st.StoreRejected)

	if len(st.Tenants) > 0 {
		fmt.Printf("tenants:\n  %-12s %-7s %6s %9s %6s %9s %9s %9s %10s %8s\n",
			"name", "class", "weight", "inflight", "jobs", "run", "hit", "streamed", "bytes", "rejected")
		for _, t := range st.Tenants {
			inflight := strconv.Itoa(t.InFlight)
			if t.MaxInFlight > 0 {
				inflight += "/" + strconv.Itoa(t.MaxInFlight)
			}
			fmt.Printf("  %-12s %-7s %6.0f %9s %6d %9d %9d %9d %10s %8d\n",
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
func tailEvents(ctx context.Context, base, token string) {
	for ctx.Err() == nil {
		if err := tailOnce(ctx, base, token); err != nil && ctx.Err() == nil {
			log.Printf("event stream: %v (retrying)", err)
			select {
			case <-time.After(time.Second):
			case <-ctx.Done():
			}
		}
	}
}

func tailOnce(ctx context.Context, base, token string) error {
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
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var data strings.Builder
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if data.Len() > 0 {
				var ev dist.Event
				if json.Unmarshal([]byte(data.String()), &ev) == nil {
					printEvent(ev)
				}
				data.Reset()
			}
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimSpace(strings.TrimPrefix(line, "data:")))
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("stream closed")
}

func printEvent(ev dist.Event) {
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
		fmt.Println(line)
	case "points":
		fmt.Printf("%s  job %s %d/%d points\n", at, ev.Job, ev.PointsDone, ev.PointsTotal)
	case "worker":
		fmt.Printf("%s  worker %s registered\n", at, ev.Worker)
	case "lease":
		fmt.Printf("%s  lease expired on job %s (worker %s), %d point(s) requeued\n",
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

// printTopology is gtwtop's original mode: a textual Figure 1.
func printTopology(ext, oc12 bool) {
	cfg := gtw.Config{Extensions: ext}
	if oc12 {
		cfg.WAN = gtw.OC12
	}
	tb := gtw.NewTestbed(cfg)

	fmt.Printf("Gigabit Testbed West — backbone %v (payload %.0f Mbit/s)\n",
		tb.Cfg.WAN, tb.Cfg.WAN.PayloadRate()/1e6)
	fmt.Println("\nhosts:")
	for _, name := range tb.HostNames() {
		if spec, ok := tb.Machine(name); ok {
			fmt.Printf("  %-16s %-12s %4d PEs, %5.0f Mflop/s/PE sustained\n",
				name, spec.Kind, spec.PEs, spec.SustainedFlops/1e6)
		} else {
			fmt.Printf("  %-16s (network element / workstation)\n", name)
		}
	}

	fmt.Println("\npath checks:")
	pairs := [][2]string{
		{gtw.HostT3E600, gtw.HostT3E1200},
		{gtw.HostT3E600, gtw.HostSP2},
		{gtw.HostWSJuelich, gtw.HostWSGMD},
		{gtw.HostOnyx2, gtw.HostWSJuelich},
	}
	for _, p := range pairs {
		mtu, err := tb.PathMTU(p[0], p[1])
		if err != nil {
			log.Fatal(err)
		}
		rtt, err := tb.RTT(p[0], p[1])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-14s -> %-14s  MTU %5d  RTT %8.3f ms\n",
			p[0], p[1], mtu, rtt.Seconds()*1000)
	}

	fmt.Println("\nregistered scenarios:")
	for _, s := range gtw.Scenarios() {
		fmt.Printf("  %-24s %s\n", s.Name(), s.Description())
	}
}
