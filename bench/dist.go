package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dist"
)

// wireOpts resolves options the way `gtwrun -connect` does before it
// submits: engine defaults first, so the coordinator and workers
// evaluate exactly what a local run would.
func wireOpts(opts ...core.Option) dist.WireOptions {
	return dist.FromOptions(core.NewOptions(opts...))
}

// firstPEs is where fresh partition sizes start: from the paper's 256
// PEs up, the fMRI chain keeps pace with the scanner, so every draw
// simulates the same number of events and only the modelled times (and
// the report bytes) change.
const firstPEs = 256

// distFleet is what both dist workloads set up: the journal directory
// and the fleet on it.
type distFleet struct {
	dir string
	f   *fleet
	c0  counters // coordinator counters when the window opened
	// stopMonitor ends the once-a-second scraper of a traced window.
	stopMonitor func()
}

func openDistFleet(e *env) (*distFleet, error) {
	d := &distFleet{stopMonitor: func() {}}
	if !e.mem {
		dir, err := os.MkdirTemp(e.outDir, scratchJournal)
		if err != nil {
			return nil, err
		}
		d.dir = dir
	}
	f, err := startFleet(d.dir, e.rec)
	if err != nil {
		d.removeDir()
		return nil, err
	}
	d.f = f
	return d, nil
}

func (d *distFleet) removeDir() error {
	if d.dir == "" {
		return nil
	}
	return os.RemoveAll(d.dir)
}

func (d *distFleet) close() error {
	d.stopMonitor()
	return errors.Join(d.f.stop(), d.removeDir())
}

// openWindow forgets set-up traffic, so per-layer counts cover the
// timed window only, and in a traced run starts the operator's
// scraper.
func (d *distFleet) openWindow() error {
	var err error
	d.c0, err = d.f.counters(context.Background())
	d.f.waitMS, d.f.resubmitted = nil, nil
	if d.f.rt == nil {
		return err
	}
	d.f.rt.reset()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.f.monitor(ctx)
	}()
	d.stopMonitor = func() {
		cancel()
		<-done
	}
	return err
}

// checkDone checks what every dist unit must satisfy.
func checkDone(st *dist.JobStatus) error {
	switch {
	case st.Status != dist.JobDone:
		return fmt.Errorf("%s (%s): %s: %s", st.ID, st.Scenario, st.Status, st.Error)
	case st.PointsDone != st.PointsTotal:
		return fmt.Errorf("%s (%s): %d of %d points done", st.ID, st.Scenario, st.PointsDone, st.PointsTotal)
	}
	return nil
}

// ------------------------------------------------------------ dist-cold --

// coldCycle is the job mix of dist-cold. Half the jobs are the fMRI
// dataflow, so the median latency is a one-point job's (submit, lease,
// result, event, fetch); a quarter are 64-point grids, which carry
// nearly all the points and so set points/s and the p90.
var coldCycle = []string{"fmri-dataflow", "figure2-endtoend", "fmri-dataflow", "bench-grid"}

// setupDistCold starts the fleet on an empty journal. Every job of the
// window is a store miss: each one-point job draws a partition size no
// earlier job used and each grid a fresh Frames label — parameters
// those scenarios read, so no narrowing of point keys can turn the
// misses into hits. The seed picks where the draws start.
func setupDistCold(e *env) (*session, error) {
	d, err := openDistFleet(e)
	if err != nil {
		return nil, err
	}
	if err := d.openWindow(); err != nil {
		d.close()
		return nil, err
	}
	ctx := context.Background()
	base := e.rng.Intn(1000)
	type sample struct {
		req    dist.JobRequest
		report []byte
	}
	var samples []sample
	s := &session{cycle: len(coldCycle), close: d.close}
	s.unit = func(i, parent int) (int, error) {
		req := dist.JobRequest{Scenario: coldCycle[i%len(coldCycle)]}
		if req.Scenario == "bench-grid" {
			req.Opts = wireOpts(core.WithFrames(1000 + base + i))
		} else {
			req.Opts = wireOpts(core.WithPEs(firstPEs + base + i))
		}
		st, again, err := d.f.run(ctx, e.rec, parent, i, req)
		if err != nil {
			return 0, err
		}
		if err := checkDone(st); err != nil {
			return 0, err
		}
		if st.PointHits != 0 && !again {
			return st.PointsTotal, fmt.Errorf("%s (%s): %d store hits on a job that must miss", st.ID, st.Scenario, st.PointHits)
		}
		if i%16 == i/16%len(coldCycle) {
			// One job in 16, stepping through the cycle so every job
			// kind is sampled.
			samples = append(samples, sample{req, st.Report})
		}
		return st.PointsTotal, nil
	}
	// The sampled jobs run again in-process once the window is over and
	// must produce the same bytes the fleet returned.
	s.verify = func() error {
		for _, sm := range samples {
			rep, err := core.RunWith(ctx, sm.req.Scenario, sm.req.Opts.Options())
			if err != nil {
				return fmt.Errorf("re-running %s in-process: %w", sm.req.Scenario, err)
			}
			b, err := rep.JSON()
			if err != nil {
				return err
			}
			if !bytes.Equal(b, sm.report) {
				return fmt.Errorf("%s %+v: the fleet's report differs from the in-process run", sm.req.Scenario, sm.req.Opts)
			}
		}
		samples = nil
		return nil
	}
	s.layers, s.notes = d.layers, d.notes
	return s, nil
}

// ------------------------------------------------------------- dist-hit --

// hitCycle is dist-cold's mix plus the three-point fMRI sweep: three
// one-point jobs in five keep the median on a one-point job, the grid
// sets the p90.
var hitCycle = []string{"fmri-dataflow", "figure2-endtoend", "fmri-pe-sweep", "fmri-dataflow", "bench-grid"}

const hitOptionSets = 32

// setupDistHit warms the store with every (scenario, option set) the
// window will ask for, shuts the fleet down, and starts a new one on
// the same directory — gtwd's -data-dir restart — so the window's
// resubmissions are served from the recovered journal. The seed draws
// which option set each resubmission repeats.
func setupDistHit(e *env) (*session, error) {
	d, err := openDistFleet(e)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	sets := hitOptionSets
	if e.quick {
		sets = 2
	}
	scenarios := []string{"fmri-pe-sweep", "fmri-dataflow", "figure2-endtoend", "bench-grid"}
	warm := make(map[string][][]byte) // scenario -> option set -> report
	opts := func(set int) dist.WireOptions {
		return wireOpts(core.WithPEs(firstPEs+set), core.WithFrames(30+set))
	}
	s := &session{cycle: len(hitCycle), digests: make(map[string]string)}
	for set := 0; set < sets; set++ {
		for _, sc := range scenarios {
			st, _, err := d.f.run(ctx, e.rec, -1, -1, dist.JobRequest{Scenario: sc, Opts: opts(set)})
			if err == nil {
				err = checkDone(st)
			}
			if err != nil {
				d.close()
				return nil, fmt.Errorf("warming: %w", err)
			}
			warm[sc] = append(warm[sc], st.Report)
			if set == 0 {
				s.digests[sc] = digest(st.Report)
			}
		}
	}
	if err := d.f.stop(); err != nil {
		d.removeDir()
		return nil, fmt.Errorf("stopping the warm fleet: %w", err)
	}
	if d.f, err = startFleet(d.dir, e.rec); err != nil {
		d.removeDir()
		return nil, fmt.Errorf("restarting on the journal: %w", err)
	}
	s.close = d.close
	if err := d.openWindow(); err != nil {
		d.close()
		return nil, err
	}
	s.unit = func(i, parent int) (int, error) {
		sc, set := hitCycle[i%len(hitCycle)], e.rng.Intn(sets)
		st, _, err := d.f.run(ctx, e.rec, parent, i, dist.JobRequest{Scenario: sc, Opts: opts(set)})
		if err != nil {
			return 0, err
		}
		if err := checkDone(st); err != nil {
			return 0, err
		}
		switch {
		case !st.Cached || st.PointHits != st.PointsTotal:
			err = fmt.Errorf("%s (%s): cached=%v with %d of %d points from the store; want a full hit",
				st.ID, sc, st.Cached, st.PointHits, st.PointsTotal)
		case !bytes.Equal(st.Report, warm[sc][set]):
			err = fmt.Errorf("%s (%s): report differs from the one computed before the restart", st.ID, sc)
		}
		return st.PointsTotal, err
	}
	s.layers, s.notes = d.layers, d.notes
	return s, nil
}

// notes lists the window's resubmitted jobs for the detail line.
func (d *distFleet) notes() []string {
	var out []string
	for _, r := range d.f.resubmitted {
		out = append(out, "resubmitted after "+r)
	}
	return out
}

// layers derives the dist per-layer metrics of the window from what
// the RoundTrippers saw and from the coordinator's own counters.
func (d *distFleet) layers(w *window) map[string]float64 {
	out := make(map[string]float64)
	c1, err := d.f.counters(context.Background())
	if err != nil {
		w.fail(fmt.Errorf("reading coordinator counters: %w", err))
	}
	out["dist.wait_ms"] = median(d.f.waitMS)
	out["dist.resubmit_share"] = float64(len(d.f.resubmitted)) / float64(len(w.unitMS))
	d.f.rt.mu.Lock()
	defer d.f.rt.mu.Unlock()
	var reqs, nbytes int64
	for name, p := range d.f.rt.paths {
		reqs += int64(len(p.ms))
		nbytes += p.bytes
		switch name {
		case "submit", "fetch", "lease", "result", "points":
			out["dist."+name+"_ms"] = median(p.ms)
		case "metrics":
			out["obs.scrape_ms"] = median(p.ms)
		case "status":
			out["dist.status_ms"] = median(p.ms)
		}
	}
	if l := d.f.rt.paths["lease"]; l != nil {
		out["dist.lease_empty_share"] = float64(l.empty) / float64(len(l.ms))
	}
	pts := float64(w.points)
	out["dist.req_per_point"] = float64(reqs) / pts
	out["dist.bytes_per_point"] = float64(nbytes) / pts
	if n := c1.leases - d.c0.leases; n > 0 {
		out["dist.points_per_lease"] = pts / float64(n)
	}
	if n := c1.hits - d.c0.hits + c1.misses - d.c0.misses; n > 0 {
		out["dist.store_hit_share"] = float64(c1.hits-d.c0.hits) / float64(n)
	}
	out["dist.store_evictions"] = float64(c1.evictions - d.c0.evictions)
	return out
}
