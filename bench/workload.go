package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one set of inputs the benchmark runs. The names and the
// reasons are repeated in BENCHMARK.json; TestBenchmarkJSONMatches
// keeps the two in step.
type workload struct {
	name  string
	why   string
	setup func(e *env) (*session, error)
}

var workloads = []workload{
	{"suite", "gtwrun all: 17 paper scenarios per pass; ~80% is internal/mpi's wall-clock LinkShaper sleeping, so apps+mpi do all the work and sim/dist/persist none", setupSuite},
	{"sim-sweep", "six simulated-network scenarios per pass through sim, netsim, tcpsim and the sharded sweep engine; no sleeps, no HTTP, no journal", setupSimSweep},
	{"dist-cold", "store-miss jobs through a loopback gtwd fleet: cheap points, so lease, wire, WAL append, store put and eviction dominate (the write side)", setupDistCold},
	{"dist-hit", "store-hit resubmissions after a journal restart: key, store get, decode, merge and job records, zero simulation (the read side)", setupDistHit},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is what a workload's set-up gets: the seeded generator it draws
// every input from, where it may write, and the span recorder of a
// traced run (nil otherwise).
type env struct {
	rng    *rand.Rand
	outDir string
	rec    *recorder
	// mem runs the dist fleet on persist.Mem instead of persist.Disk
	// (the comparison side of persist.disk_over_mem_x).
	mem bool
	// quick shrinks set-up work that does not scale with -seconds (the
	// suite's scenario list, the dist-hit warm set) for the smoke test.
	quick bool
}

// session is a workload after set-up, ready for its timed window.
type session struct {
	// unit runs closed-loop unit i under span parent and returns the
	// grid points it completed. An error fails the unit: a call that
	// failed, a wrong hit/miss state, or report bytes that differ from
	// the reference.
	unit func(i, parent int) (points int, err error)
	// cycle is the number of units after which the window may end, so
	// the job mix of a window is always whole cycles.
	cycle int
	// verify runs checks that must wait for the window to end (nil: none).
	verify func() error
	// layers returns the workload-derived per-layer metrics of the
	// window just measured (traced runs only).
	layers func(w *window) map[string]float64
	// notes returns what the window's log should mention besides
	// failures (nil: nothing) — the dist workloads' resubmitted jobs.
	notes func() []string
	// digests names the sha256 of every deterministic report, so
	// simulated statistics can be compared across commits.
	digests map[string]string
	close   func() error
}

// window is what one timed window measured.
type window struct {
	unitMS   []float64 // per unit, in order
	points   int
	failed   int
	errs     []string // first few failures, for the log
	notes    []string // see session.notes
	wall     time.Duration
	cpu      time.Duration // process user+sys over the window
	rootSpan int
}

func (w *window) fail(err error) {
	w.failed++
	if len(w.errs) < 5 {
		w.errs = append(w.errs, err.Error())
	}
}

// absorb counts the failures of a side window of the same run (the
// untraced reference of a traced run) against this one.
func (w *window) absorb(side *window, what string) {
	w.failed += side.failed
	for _, e := range side.errs {
		w.errs = append(w.errs, what+": "+e)
	}
	for _, n := range side.notes {
		w.notes = append(w.notes, what+": "+n)
	}
}

// measure runs units back to back for about the given time: it stops at
// the first cycle boundary where one more cycle, at the average pace so
// far, would overrun. At least one cycle always runs.
func measure(s *session, seconds float64, rec *recorder) *window {
	w := &window{}
	budget := time.Duration(seconds * float64(time.Second))
	w.rootSpan = rec.begin("window", layerBench, laneClient, -1, -1)
	cpu0 := cpuTime()
	start := time.Now()
	for i := 0; ; i++ {
		if i > 0 && i%s.cycle == 0 {
			elapsed := time.Since(start)
			if elapsed+elapsed/time.Duration(i/s.cycle) > budget {
				break
			}
		}
		id := rec.begin("unit", layerBench, laneClient, w.rootSpan, i)
		t0 := time.Now()
		pts, err := s.unit(i, id)
		w.unitMS = append(w.unitMS, ms(time.Since(t0)))
		rec.end(id)
		w.points += pts
		if err != nil {
			w.fail(fmt.Errorf("unit %d: %w", i, err))
		}
	}
	w.wall = time.Since(start)
	w.cpu = cpuTime() - cpu0
	rec.end(w.rootSpan)
	if s.verify != nil {
		if err := s.verify(); err != nil {
			w.fail(err)
		}
	}
	if s.notes != nil {
		w.notes = s.notes()
	}
	return w
}

// endToEnd derives the user-visible metrics of a window.
func (w *window) endToEnd() map[string]float64 {
	sorted := sortedCopy(w.unitMS)
	return map[string]float64{
		"unit_ms_p50":      percentile(sorted, 50),
		"unit_ms_p90":      percentile(sorted, 90),
		"points_per_s":     float64(w.points) / w.wall.Seconds(),
		"cpu_ms_per_point": ms(w.cpu) / float64(w.points),
	}
}

// ------------------------------------------------------------- stats --

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of an ascending slice (0
// for an empty one). With fewer than 100/(100-p) samples it is the
// maximum, which is why unit_ms_p90 on suite (a handful of passes) is
// the slowest pass.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median is the middle value, or the mean of the two middle values (0
// for an empty slice) — what Python's statistics.median gives, so
// -compare reads the same medians the acceptance check does.
func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile picks the highest percentile of 50, 90, 99, 99.9,
// 99.99 that still has at least ten of n samples beyond it; 0 when not
// even the median does (n < 20).
func tailPercentile(n int) float64 {
	best := 0.0
	for _, t := range []struct {
		p    float64
		minN int // ten samples beyond p
	}{{50, 20}, {90, 100}, {99, 1000}, {99.9, 10000}, {99.99, 100000}} {
		if n >= t.minN {
			best = t.p
		}
	}
	return best
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// ------------------------------------------------------ process costs --

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(rest, &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
