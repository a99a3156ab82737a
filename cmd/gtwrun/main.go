// Command gtwrun lists and runs any registered scenario through the
// unified run engine — the generic replacement for per-experiment
// plumbing in the older commands.
//
// Usage:
//
//	gtwrun -list
//	gtwrun [flags] all
//	gtwrun [flags] scenario [scenario ...]
//
// Flags:
//
//	-wan oc12|oc48   backbone generation of the testbeds scenarios run on
//	-extensions      include the section-5 extension sites
//	-pes N           T3E partition size (fMRI scenarios)
//	-frames N        volumes/frames/scans to acquire
//	-flows N         concurrent backbone flows
//	-workers N       engine worker pool size, and the most shards a sweep uses
//	                 (groundwater-coupled's TRACE look-ahead uses up to
//	                 GOMAXPROCS solvers whatever -workers is)
//	-json            print each report as JSON instead of text
//	-timeout D       cancel the whole run after D (e.g. 30s)
//	-connect URL     run scenarios through a remote coordinator
//	-token TOK       tenant token for a -tenants coordinator (with -connect)
//	-cpuprofile F    write a CPU profile of the run to F (go tool pprof)
//
// Sweep scenarios (figure1-throughput, backbone-aggregate,
// mixed-traffic, fmri-pe-sweep) lease their parameter grid to one
// kernel per core (at most -workers) through a work-stealing queue;
// with -json their envelope carries the participant count and
// per-shard timings. Neither sharding nor distribution ever changes
// the report itself.
//
// Distributed mode: -connect URL submits the named scenarios to a gtwd
// coordinator — with its job queue and result cache — and prints the
// reports exactly as a local run would. A connected run is two round
// trips per job: the submit, and one status request the coordinator
// holds (?wait_ms) until the job is finished and answers with the
// report. Against a coordinator that does not hold requests the wait
// degrades to status polling on its own.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"time"

	gtw "repro"

	"repro/internal/dist"
)

// jsonEnvelope is the -json output schema, one object per scenario.
// The golden tests (testdata/envelope.golden, envelope_connect.golden)
// pin it: the report stays byte-identical whatever the shard/worker
// count or cache path, and the envelope carries the execution metadata
// around it.
type jsonEnvelope struct {
	Scenario  string `json:"scenario"`
	ElapsedMS int64  `json:"elapsed_ms"`
	// Workers counts the participants (in-process shards or remote
	// workers) that evaluated at least one grid point; 0 for non-sweep
	// scenarios and for fully cache-served jobs.
	Workers int               `json:"workers,omitempty"`
	Shards  []gtw.ShardTiming `json:"shards,omitempty"`
	// PointHits counts grid points served from the coordinator's
	// content-addressed point store (-connect runs only); Cached marks
	// a job every one of whose points was a hit.
	PointHits int  `json:"point_hits,omitempty"`
	Cached    bool `json:"cached,omitempty"`
	// Error carries the failure text when the scenario failed; the
	// envelope then has no report.
	Error  string          `json:"error,omitempty"`
	Report json.RawMessage `json:"report,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main: it parses args, drives the engine
// and reports the process exit code.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("gtwrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := gtw.DefaultOptions()
	defWAN := "oc48"
	if def.WAN == gtw.OC12 {
		defWAN = "oc12"
	}
	list := fs.Bool("list", false, "list registered scenarios and exit")
	wan := fs.String("wan", defWAN,
		"backbone generation of the testbeds scenarios run on: oc12 or oc48 (carrier-sweep scenarios ignore it)")
	ext := fs.Bool("extensions", false, "include the section-5 extension sites")
	pes := fs.Int("pes", def.PEs, "T3E partition size")
	frames := fs.Int("frames", def.Frames, "volumes/frames/scans to acquire")
	flows := fs.Int("flows", def.Flows, "concurrent backbone flows")
	workers := fs.Int("workers", 0, "engine worker pool size, and the most shards a sweep uses (0 = GOMAXPROCS); groundwater-coupled's TRACE look-ahead uses up to GOMAXPROCS solvers whatever it is")
	asJSON := fs.Bool("json", false, "print each report as JSON instead of text")
	timeout := fs.Duration("timeout", 0, "cancel the whole run after this duration (0 = none)")
	connect := fs.String("connect", "",
		"coordinator URL: run the named scenarios through a remote coordinator instead of in-process")
	token := fs.String("token", "",
		"tenant token for a -tenants coordinator (with -connect; sent as Authorization: Bearer)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (read it with go tool pprof)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err == nil {
			if err = pprof.StartCPUProfile(f); err != nil {
				f.Close()
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "gtwrun: -cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil && code == 0 {
				fmt.Fprintf(stderr, "gtwrun: -cpuprofile: %v\n", err)
				code = 1
			}
		}()
	}

	if *list {
		for _, s := range gtw.Scenarios() {
			fmt.Fprintf(stdout, "  %-24s %s\n", s.Name(), s.Description())
		}
		return 0
	}

	rest := fs.Args()
	if len(rest) == 0 {
		fmt.Fprintln(stderr, "usage: gtwrun [-list] [flags] all|scenario...")
		return 2
	}
	var names []string // nil = every registered scenario
	if !(len(rest) == 1 && rest[0] == "all") {
		names = rest
		// Reject unknown names up front with a usable message instead
		// of a per-result failure line.
		for _, name := range names {
			if _, ok := gtw.Lookup(name); !ok {
				fmt.Fprintf(stderr, "gtwrun: unknown scenario %q (try -list)\n", name)
				return 2
			}
		}
	}

	opts := []gtw.Option{
		gtw.WithPEs(*pes),
		gtw.WithFrames(*frames),
		gtw.WithFlows(*flows),
		gtw.WithWorkers(*workers),
	}
	if *ext {
		opts = append(opts, gtw.WithExtensions())
	}
	var oc gtw.OC
	switch *wan {
	case "oc12":
		oc = gtw.OC12
	case "oc48":
		oc = gtw.OC48
	default:
		fmt.Fprintf(stderr, "gtwrun: unknown -wan %q (want oc12 or oc48)\n", *wan)
		return 2
	}
	opts = append(opts, gtw.WithWAN(oc))

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *connect != "" {
		// -workers never reaches the wire: it only changes wall-clock
		// time, so dropping it is safe.
		return runConnect(ctx, *connect, *token, names, gtw.NewOptions(opts...), *asJSON, stdout, stderr)
	}

	start := time.Now()
	results, err := gtw.RunAll(ctx, names, opts...)
	if err != nil && len(results) == 0 {
		fmt.Fprintf(stderr, "gtwrun: %v\n", err)
		return 1
	}
	failed := 0
	for _, r := range results {
		if r.Err != nil {
			failed++
			fmt.Fprintf(stderr, "%-24s FAILED after %s: %v\n",
				r.Name, r.Elapsed.Round(time.Millisecond), r.Err)
			continue
		}
		if *asJSON {
			b, jerr := r.Report.JSON()
			if jerr != nil {
				failed++
				fmt.Fprintf(stderr, "%-24s marshal: %v\n", r.Name, jerr)
				continue
			}
			// Sweep scenarios carry their participant count and
			// per-shard timings in the envelope (never in the report,
			// which stays byte-identical to a sequential run).
			env := jsonEnvelope{Scenario: r.Name, ElapsedMS: r.Elapsed.Milliseconds(), Report: b}
			if sr, ok := r.Report.(gtw.ShardedReport); ok {
				env.Shards = sr.ShardTimings()
				env.Workers = gtw.CountWorkers(env.Shards)
			}
			printEnvelope(stdout, stderr, env)
		} else {
			fmt.Fprintf(stdout, "=== %s (%s)\n", r.Name, r.Elapsed.Round(time.Millisecond))
			fmt.Fprint(stdout, r.Report.Text())
			fmt.Fprintln(stdout)
		}
	}
	if !*asJSON {
		fmt.Fprintf(stdout, "ran %d scenario(s) in %s, %d failed\n",
			len(results), time.Since(start).Round(time.Millisecond), failed)
	}
	if failed > 0 || err != nil {
		return 1
	}
	return 0
}

// printEnvelope writes one -json line.
func printEnvelope(stdout, stderr io.Writer, env jsonEnvelope) {
	b, err := json.Marshal(env)
	if err != nil {
		fmt.Fprintf(stderr, "%-24s marshal: %v\n", env.Scenario, err)
		return
	}
	fmt.Fprintln(stdout, string(b))
}

// runConnect submits the named scenarios to a remote coordinator and
// prints the reports exactly as a local run would: same text layout,
// same -json envelope (the report bytes are byte-identical to a local
// run by the dispatch-invariance guarantee).
//
// Failures surface the coordinator's view, not just a transport status:
// a failed job prints its failure text and how far it got
// (points done/total); a submit-or-poll error after the job was
// accepted re-polls the coordinator for its last known state; and a
// "done" job without a report counts as failed. Every failure path
// exits non-zero, and with -json emits an error envelope so scripted
// consumers see the failure on stdout too.
func runConnect(ctx context.Context, url, token string, names []string, o gtw.Options,
	asJSON bool, stdout, stderr io.Writer) int {
	if len(names) == 0 {
		for _, s := range gtw.Scenarios() {
			names = append(names, s.Name())
		}
	}
	cl := &dist.Client{Base: url, Token: token}
	start := time.Now()
	failed := 0
	fail := func(name, msg string) {
		failed++
		if asJSON {
			printEnvelope(stdout, stderr, jsonEnvelope{Scenario: name, Error: msg})
		}
		fmt.Fprintf(stderr, "%-24s FAILED: %s\n", name, msg)
	}
	for _, name := range names {
		st, err := cl.Submit(ctx, dist.JobRequest{Scenario: name, Opts: dist.FromOptions(o)})
		jobID := ""
		if err == nil {
			jobID = st.ID
			if st.Status != dist.JobDone && st.Status != dist.JobFailed {
				st, err = cl.Wait(ctx, st.ID)
			}
		}
		if err != nil {
			msg := err.Error()
			// The job may still exist (and even still run) on the
			// coordinator: surface its last known state and progress
			// instead of only the transport error.
			if jobID != "" {
				if last := lastStatus(cl, jobID); last != nil {
					msg = fmt.Sprintf("%v (coordinator: job %s %s, %d/%d points done)",
						err, last.ID, last.Status, last.PointsDone, last.PointsTotal)
				}
			}
			fail(name, msg)
			continue
		}
		if st.Status != dist.JobDone {
			msg := st.Error
			if msg == "" {
				msg = "job " + st.Status
			}
			if st.PointsTotal > 0 {
				msg = fmt.Sprintf("%s (%d/%d points done)", msg, st.PointsDone, st.PointsTotal)
			}
			fail(name, fmt.Sprintf("after %s: %s",
				(time.Duration(st.ElapsedMS)*time.Millisecond).Round(time.Millisecond), msg))
			continue
		}
		if len(st.Report) == 0 {
			fail(name, fmt.Sprintf("job %s done but the coordinator returned no report", st.ID))
			continue
		}
		if asJSON {
			printEnvelope(stdout, stderr, jsonEnvelope{
				Scenario: name, ElapsedMS: st.ElapsedMS,
				Workers: st.Workers, Shards: st.Shards,
				PointHits: st.PointHits, Cached: st.Cached,
				Report: st.Report,
			})
		} else {
			cached := ""
			switch {
			case st.Cached:
				cached = ", cached"
			case st.PointHits > 0:
				cached = fmt.Sprintf(", %d/%d points cached", st.PointHits, st.PointsTotal)
			}
			fmt.Fprintf(stdout, "=== %s (%s via %s%s)\n", name,
				(time.Duration(st.ElapsedMS) * time.Millisecond).Round(time.Millisecond), url, cached)
			fmt.Fprint(stdout, st.Text)
			fmt.Fprintln(stdout)
		}
	}
	if !asJSON {
		fmt.Fprintf(stdout, "ran %d scenario(s) in %s via %s, %d failed\n",
			len(names), time.Since(start).Round(time.Millisecond), url, failed)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// lastStatus fetches a job's status on a fresh short-lived context, for
// error paths where the caller's context is already dead (timeout) or
// the poll just failed transiently. Nil when the coordinator cannot be
// asked.
func lastStatus(cl *dist.Client, jobID string) *dist.JobStatus {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	st, err := cl.Job(ctx, jobID)
	if err != nil {
		return nil
	}
	return st
}
