// Command bench is the repository's end-to-end and per-layer benchmark
// (BENCHMARK.json at the repo root names it). It drives four closed-loop
// workloads through the real entry points — core.RunAll, core.Run and a
// loopback dist fleet on a persist.Disk journal with a tenant registry —
// checks every report byte for byte, and in a traced run records a span
// around every call it makes into a layer. See README.md.
//
//	bash bench/run.sh --workload dist-hit --seed 7 --seconds 20 --trace 0
//	bash bench/run.sh -runs 10 -o bench/out/a.json      # every workload
//	bash bench/run.sh -compare bench/out/a.json bench/out/b.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	outDir    string
	setupOnly bool
	// quick is the smoke test's scale: see env.quick.
	quick bool
}

// env is what a workload's set-up gets from this invocation.
func (cfg config) env(rec *recorder) *env {
	return &env{rng: rand.New(rand.NewSource(cfg.seed)), outDir: cfg.outDir, rec: rec, quick: cfg.quick}
}

// setupRuns is how many times a timed run sets its workload up, each in
// a fresh child process, to report the median as setup_s.
const setupRuns = 5

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace, runs int
	var compare bool
	var docPath string
	fs.StringVar(&cfg.workload, "workload", "", "run this one workload in this process and end with the result line (default: every workload, each in child processes)")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 22, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1: record spans, report the per-layer metrics and write out/trace-<workload>.json")
	fs.StringVar(&cfg.outDir, "out", filepath.Join("bench", "out"), "directory for traces, results and scratch journals")
	fs.IntVar(&runs, "runs", 1, "timed runs per workload, on seeds seed, seed+1, ... (all workloads only)")
	fs.StringVar(&docPath, "o", "", "where to write the result document (all workloads only; default <out>/result.json)")
	fs.BoolVar(&compare, "compare", false, "compare two result documents: bench -compare A.json B.json")
	fs.BoolVar(&cfg.setupOnly, "setup-only", false, "set the workload up, print \"ready\", shut down (what setup_s times)")
	fs.BoolVar(&cfg.quick, "quick", false, "smoke-test scale: shrink set-up that does not scale with -seconds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace != 0
	var err error
	if !compare {
		// Everything a run writes goes under here.
		err = os.MkdirAll(cfg.outDir, 0o755)
	}
	switch {
	case err != nil:
	case compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		var worse bool
		if worse, err = compareDocs(stdout, fs.Arg(0), fs.Arg(1)); err == nil && worse {
			return 1
		}
	case cfg.setupOnly:
		err = setupOnly(cfg, stdout)
	case cfg.workload != "":
		var res *result
		if res, err = runWorkload(cfg, stdout); err == nil && !res.Correct {
			return 1
		}
	default:
		if docPath == "" {
			docPath = filepath.Join(cfg.outDir, "result.json")
		}
		err = runAll(cfg, runs, docPath, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// result is the last line of a workload run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is the line before it: what the result line has no key for.
type detail struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Traced   bool    `json:"traced"`
	WindowS  float64 `json:"window_s"`
	Points   int     `json:"points"`
	// CanaryNS is sim.event_ns before and after the workload; Noisy
	// marks a run during which the host's speed moved by more than 15%.
	CanaryNS [2]float64        `json:"canary_ns"`
	Noisy    bool              `json:"noisy"`
	Digests  map[string]string `json:"digests,omitempty"`
	Errors   []string          `json:"errors,omitempty"`
	Notes    []string          `json:"notes,omitempty"`
	Trace    string            `json:"trace_file,omitempty"`
}

const detailPrefix = "detail "

// runWorkload runs one workload in this process: timed, or traced.
func runWorkload(cfg config, stdout io.Writer) (*result, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(names, ", "))
	}
	det := &detail{Workload: w.name, Seed: cfg.seed, Traced: cfg.trace}
	if cfg.quick {
		setProbeTime("2ms")
	}
	var win *window
	var vals map[string]float64
	var err error
	defs := endToEndDefs
	if cfg.trace {
		defs = perLayerDefs
		win, vals, err = traced(w, cfg, det)
	} else {
		win, vals, err = timed(w, cfg, det)
	}
	if err != nil {
		return nil, err
	}
	det.Noisy = det.CanaryNS[1] > 1.15*det.CanaryNS[0] || det.CanaryNS[0] > 1.15*det.CanaryNS[1]
	det.WindowS, det.Points, det.Errors, det.Notes = win.wall.Seconds(), win.points, win.errs, win.notes
	res := &result{Correct: win.failed == 0, Attempted: len(win.unitMS), Failed: win.failed}
	var stray []string
	if res.Metrics, stray = named(defs, vals); len(stray) > 0 {
		return nil, fmt.Errorf("measured %v, which metrics.go does not define", stray)
	}

	noisy := ""
	if det.Noisy {
		noisy = " (NOISY)"
	}
	fmt.Fprintf(stdout, "%s seed %d: %d units, %d points in %.2f s, %d failed, canary %.1f -> %.1f ns/event%s\n",
		w.name, cfg.seed, res.Attempted, win.points, det.WindowS, res.Failed, det.CanaryNS[0], det.CanaryNS[1], noisy)
	for _, e := range win.errs {
		fmt.Fprintln(stdout, "  FAILED:", e)
	}
	for _, n := range win.notes {
		fmt.Fprintln(stdout, "  note:", n)
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "  %-38s %14.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	db, err := json.Marshal(det)
	if err != nil {
		return nil, err
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s%s\n%s\n", detailPrefix, db, rb)
	return res, nil
}

// window sets the workload up, measures one window and shuts down.
func (w workload) window(e *env, seconds float64) (*window, map[string]float64, map[string]string, error) {
	s, err := w.setup(e)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	win := measure(s, seconds, e.rec)
	var layers map[string]float64
	if e.rec != nil {
		layers = s.layers(win)
	}
	if err := s.close(); err != nil {
		win.fail(fmt.Errorf("shutting down: %w", err))
	}
	return win, layers, s.digests, nil
}

// timed is a --trace 0 run: set-up timed in child processes, then one
// window with no recorder anywhere.
func timed(w workload, cfg config, det *detail) (*window, map[string]float64, error) {
	setupS, err := timeSetups(cfg)
	if err != nil {
		return nil, nil, err
	}
	det.CanaryNS[0] = canary()
	win, _, digests, err := w.window(cfg.env(nil), cfg.seconds)
	if err != nil {
		return nil, nil, err
	}
	det.CanaryNS[1] = canary()
	det.Digests = digests
	vals := win.endToEnd()
	vals["setup_s"] = setupS
	if vals["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, nil, err
	}
	return win, vals, nil
}

// traced is a --trace 1 run: a quarter-length window untraced, the same
// window again with the recorder on, then the probes. The first window
// is what trace.overhead_share compares against.
func traced(w workload, cfg config, det *detail) (*window, map[string]float64, error) {
	quarter := cfg.seconds / 4
	det.CanaryNS[0] = canary()
	ref, _, _, err := w.window(cfg.env(nil), quarter)
	if err != nil {
		return nil, nil, err
	}
	rec := newRecorder()
	win, vals, digests, err := w.window(cfg.env(rec), quarter)
	if err != nil {
		return nil, nil, err
	}
	det.Digests = digests
	win.absorb(ref, "untraced window")
	if w.name == "dist-cold" {
		// The same window on persist.Mem: what the journal costs.
		mem := cfg.env(nil)
		mem.mem = true
		mw, _, _, err := w.window(mem, quarter/2)
		if err != nil {
			return nil, nil, err
		}
		win.absorb(mw, "persist.Mem window")
		vals["persist.disk_over_mem_x"] = median(ref.unitMS) / median(mw.unitMS)
	}
	probed, err := runProbes(cfg.outDir, rec, cfg.quick)
	if err != nil {
		return nil, nil, err
	}
	det.CanaryNS[1] = canary()
	for k, v := range probed {
		vals[k] = v
	}

	sorted := sortedCopy(win.unitMS)
	vals["client.unit_ms_p99"] = percentile(sorted, 99)
	if p := tailPercentile(len(sorted)); p > 0 {
		vals["client.tail_pct"], vals["client.unit_ms_tail"] = p, percentile(sorted, p)
	}
	vals["trace.overhead_share"] = median(win.unitMS)/median(ref.unitMS) - 1

	spans := rec.resolve()
	var sum time.Duration
	for layer, d := range fold(spans, win.rootSpan) {
		vals["self."+layer+"_share"] = d.Seconds() / win.wall.Seconds()
		sum += d
	}
	vals["trace.self_sum_share"] = sum.Seconds() / win.wall.Seconds()
	det.Trace = filepath.Join(cfg.outDir, "trace-"+w.name+".json")
	return win, vals, writeChromeTrace(det.Trace, spans)
}

// ---------------------------------------------------------- set-up time --

// setupOnly is the child side of setup_s: bring the workload to the
// point where its first unit could run, say so, shut down.
func setupOnly(cfg config, stdout io.Writer) error {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	s, err := w.setup(cfg.env(nil))
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "ready")
	return s.close()
}

// timeSetups reports the median time from starting a fresh process to
// its workload being ready for the first unit — process start, package
// and registry initialisation, and the workload's own set-up (reference
// runs, warm-up pass, fleet start, store warming and journal recovery).
// A child process each time, because that is the only way to pay
// initialisation again.
func timeSetups(cfg config) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	args := []string{"-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed), "-out", cfg.outDir, "-setup-only"}
	if cfg.quick {
		args = append(args, "-quick")
	}
	var secs []float64
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		ready := false
		for sc := bufio.NewScanner(out); sc.Scan(); {
			if sc.Text() == "ready" {
				secs = append(secs, time.Since(t0).Seconds())
				ready = true
			}
		}
		if err := cmd.Wait(); err != nil || !ready {
			return 0, fmt.Errorf("set-up child for %s: ready=%v: %w", cfg.workload, ready, err)
		}
	}
	return median(secs), nil
}

// ------------------------------------------------------- every workload --

// host says where the numbers were taken.
type host struct {
	NumCPU     int    `json:"numcpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
	// OutFS is the filesystem the scratch journals live on: fsync cost
	// differs by an order of magnitude between tmpfs and a disk.
	OutFS string `json:"out_fs"`
}

func hostInfo(outDir string) host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH, OutFS: "unknown"}
	var st syscall.Statfs_t
	if syscall.Statfs(outDir, &st) == nil {
		names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs"}
		if h.OutFS = names[int64(st.Type)]; h.OutFS == "" {
			h.OutFS = fmt.Sprintf("%#x", st.Type)
		}
	}
	return h
}

// runDoc is one child run in the result document.
type runDoc struct {
	detail
	NUnits    int               `json:"n_units"`
	Failed    int               `json:"failed"`
	FailShare float64           `json:"fail_share"`
	Metrics   map[string]metric `json:"metrics"`
}

type workloadDoc struct {
	Why    string   `json:"why"`
	Timed  []runDoc `json:"timed"`
	Traced *runDoc  `json:"traced,omitempty"`
}

// doc is what running every workload writes and -compare reads.
type doc struct {
	Host      host                    `json:"host"`
	Fleet     map[string]any          `json:"fleet_config"`
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Workloads map[string]*workloadDoc `json:"workloads"`
}

// runAll runs every workload — `runs` timed runs and one traced run
// each, every one a child process of its own so set-up, memory and
// leaks are per run — and writes the result document.
func runAll(cfg config, runs int, docPath string, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	d := &doc{Host: hostInfo(cfg.outDir), Fleet: fleetConfig(), Seed: cfg.seed, Seconds: cfg.seconds, Workloads: make(map[string]*workloadDoc)}
	var failed error
	for _, w := range workloads {
		wd := &workloadDoc{Why: w.why}
		d.Workloads[w.name] = wd
		for r := 0; r <= runs; r++ {
			seed, trace := cfg.seed+int64(r), 0
			if r == runs {
				seed, trace = cfg.seed, 1
			}
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(cfg.seconds), "-trace", fmt.Sprint(trace), "-out", cfg.outDir}
			if cfg.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = stderr
			out, cerr := cmd.Output()
			rd, perr := parseRun(out)
			if perr != nil {
				return fmt.Errorf("%s (seed %d, trace %d): %w (%v)", w.name, seed, trace, perr, cerr)
			}
			if cerr != nil || rd.Failed > 0 {
				failed = errors.Join(failed, fmt.Errorf("%s (seed %d, trace %d): %d of %d units failed: %v", w.name, seed, trace, rd.Failed, rd.NUnits, rd.Errors))
			}
			if trace == 1 {
				wd.Traced = rd
			} else {
				wd.Timed = append(wd.Timed, *rd)
			}
			// The child's table, minus its two machine-readable lines.
			lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
			fmt.Fprintln(stdout, strings.Join(lines[:len(lines)-2], "\n"))
		}
	}
	b, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(docPath, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "host: %+v\nwrote %s\n", d.Host, docPath)
	return failed
}

// parseRun reads a child's last two lines.
func parseRun(out []byte) (*runDoc, error) {
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], detailPrefix) {
		return nil, fmt.Errorf("child printed no result")
	}
	var res result
	rd := &runDoc{}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], detailPrefix)), &rd.detail); err != nil {
		return nil, err
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, err
	}
	rd.NUnits, rd.Failed, rd.Metrics = res.Attempted, res.Failed, res.Metrics
	rd.FailShare = float64(res.Failed) / float64(res.Attempted)
	return rd, nil
}
