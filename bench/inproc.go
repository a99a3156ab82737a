package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/atm"
	"repro/internal/core"
)

// ---------------------------------------------------------------- suite --

// Scenarios the registry holds that are not the paper's: the control
// plane's own load test and the benchmark's grid.
var notPaper = map[string]bool{"client-fleet": true, "client-fleet-unit": true, "bench-grid": true}

// hostTimed reports embed host wall-clock measurements (render times,
// traced MPI intervals), so their bytes differ from pass to pass; they
// are checked for errors only.
var hostTimed = map[string]bool{"figure3-overlay": true, "figure4-workbench": true, "groundwater-coupled": true}

// simScenarios spend their time in sim/netsim/tcpsim; every other paper
// scenario is application code (most of it over internal/mpi).
var simScenarios = map[string]bool{
	"figure1-throughput": true, "figure2-endtoend": true, "backbone-aggregate": true,
	"mixed-traffic": true, "video-d1": true, "fmri-dataflow": true, "fmri-pe-sweep": true,
	"section3-applications": true,
}

// suiteNamed get a per-layer row of their own; the rest share
// scenario.other_ms. The first three are the sleeping coupled
// applications ROADMAP direction 2 is about.
var suiteNamed = []string{"fsi-cocolib", "climate-coupled", "groundwater-coupled", "fire-rt-session", "figure4-workbench"}

// quickSuite is the smoke test's pass: one scenario per kind, none of
// them asleep for seconds.
var quickSuite = []string{"figure1-throughput", "figure4-workbench", "fmri-dataflow", "meg-music", "table1-model"}

func scenarioLayer(name string) string {
	if simScenarios[name] {
		return layerSim
	}
	return layerApps
}

// gridSize is the number of grid points a scenario's plan holds.
func gridSize(name string) (int, error) {
	s, ok := core.Lookup(name)
	if !ok {
		return 0, fmt.Errorf("unknown scenario %q", name)
	}
	return len(core.PlanFor(s).Sweep().Points()), nil
}

// setupSuite prepares `gtwrun all`: one unit is one core.RunAll pass
// over the paper scenarios at engine defaults. There is no warm-up — a
// CLI user pays the cold start — and no seeded input: the suite is the
// fixed reproduction, so the seed only names the run.
func setupSuite(e *env) (*session, error) {
	var names []string
	for _, s := range core.Scenarios() {
		if !notPaper[s.Name()] {
			names = append(names, s.Name())
		}
	}
	if e.quick {
		names = quickSuite
	}
	pointsPerPass := 0
	for _, n := range names {
		g, err := gridSize(n)
		if err != nil {
			return nil, err
		}
		pointsPerPass += g
	}
	ctx := context.Background()
	elapsed := make(map[string][]float64) // per scenario, per pass
	var passMS []float64
	s := &session{cycle: 1, digests: make(map[string]string), close: func() error { return nil }}
	s.unit = func(i, parent int) (int, error) {
		t0 := time.Now()
		results, err := core.RunAll(ctx, names)
		wall := time.Since(t0)
		if err != nil {
			return 0, err
		}
		passMS = append(passMS, ms(wall))
		if e.rec != nil {
			recordPass(e.rec, results, t0, wall, parent, i)
		}
		for _, r := range results {
			elapsed[r.Name] = append(elapsed[r.Name], ms(r.Elapsed))
			if r.Err != nil {
				err = fmt.Errorf("%s: %w", r.Name, r.Err)
				continue
			}
			if hostTimed[r.Name] {
				continue
			}
			b, jerr := r.Report.JSON()
			if jerr != nil {
				err = fmt.Errorf("%s: %w", r.Name, jerr)
				continue
			}
			d := digest(b)
			if ref, seen := s.digests[r.Name]; !seen {
				s.digests[r.Name] = d
			} else if ref != d {
				err = fmt.Errorf("%s: report bytes differ from the first pass", r.Name)
			}
		}
		return pointsPerPass, err
	}
	s.layers = func(w *window) map[string]float64 {
		out := make(map[string]float64)
		named := make(map[string]bool)
		for _, n := range suiteNamed {
			named[n] = true
			out["scenario."+n+"_ms"] = median(elapsed[n])
		}
		var sum float64
		other := make([]float64, len(passMS))
		for n, v := range elapsed {
			for p, x := range v {
				sum += x
				if !named[n] {
					other[p] += x
				}
			}
		}
		out["scenario.other_ms"] = median(other)
		out["suite.cpu_over_wall"] = ms(w.cpu) / sum
		out["core.runall_overlap_x"] = sum / ms(w.wall)
		return out
	}
	return s, nil
}

// recordPass turns one RunAll result into spans. RunAll reports how
// long each scenario ran but not when it started; its pool is greedy
// (the next scenario in input order goes to the first free slot), so
// replaying that rule over the elapsed times recovers each start to
// within the pool's hand-off cost.
func recordPass(rec *recorder, results []core.RunResult, t0 time.Time, wall time.Duration, parent, unit int) {
	start := rec.at(t0)
	pass := rec.add(span{Name: "core.RunAll", Layer: layerCore, Lane: laneClient, Start: start, End: start + wall, Parent: parent, Unit: unit})
	free := make([]time.Duration, min(runtime.GOMAXPROCS(0), len(results)))
	for i := range free {
		free[i] = start
	}
	for _, r := range results {
		slot := 0
		for i := range free {
			if free[i] < free[slot] {
				slot = i
			}
		}
		rec.add(span{Name: r.Name, Layer: scenarioLayer(r.Name), Lane: 1 + slot, Start: free[slot], End: free[slot] + r.Elapsed, Parent: pass, Unit: unit})
		free[slot] += r.Elapsed
	}
}

// ------------------------------------------------------------ sim-sweep --

type sweepItem struct {
	key, scenario string
	opts          []core.Option
}

// sweepItems is one pass of the simulated-network sweep: both backbone
// generations of Figure 1, the upgrade-motivation sweeps, D1 video, and
// the fMRI dataflow DES at ten times its default length.
var sweepItems = []sweepItem{
	{"figure1-oc48", "figure1-throughput", nil},
	{"figure1-oc12ext", "figure1-throughput", []core.Option{core.WithWAN(atm.OC12), core.WithExtensions()}},
	{"backbone-aggregate", "backbone-aggregate", []core.Option{core.WithFlows(4)}},
	{"mixed-traffic", "mixed-traffic", nil},
	{"video-d1", "video-d1", nil},
	{"fmri-pe-sweep", "fmri-pe-sweep", []core.Option{core.WithFrames(300)}},
}

func (it sweepItem) run(ctx context.Context, extra ...core.Option) ([]byte, time.Duration, error) {
	t0 := time.Now()
	rep, err := core.Run(ctx, it.scenario, append(append([]core.Option(nil), it.opts...), extra...)...)
	d := time.Since(t0)
	if err != nil {
		return nil, d, fmt.Errorf("%s: %w", it.key, err)
	}
	b, err := rep.JSON()
	return b, d, err
}

// setupSimSweep computes the serial reference of every item
// (WithShards(1): one kernel at a time, the bytes every other execution
// policy must reproduce), then runs one untimed pass at engine defaults
// so the timed window starts warm. A unit is one pass over the items in
// an order the seed permutes.
func setupSimSweep(e *env) (*session, error) {
	ctx := context.Background()
	s := &session{cycle: 1, digests: make(map[string]string), close: func() error { return nil }}
	ref := make([][]byte, len(sweepItems))
	pointsPerPass := 0
	for i, it := range sweepItems {
		b, _, err := it.run(ctx, core.WithShards(1))
		if err != nil {
			return nil, err
		}
		ref[i], s.digests[it.key] = b, digest(b)
		g, err := gridSize(it.scenario)
		if err != nil {
			return nil, err
		}
		pointsPerPass += g
	}
	elapsed := make([][]float64, len(sweepItems))
	s.unit = func(i, parent int) (int, error) {
		var err error
		for _, k := range e.rng.Perm(len(sweepItems)) {
			it := sweepItems[k]
			id := e.rec.begin(it.key, layerSim, laneClient, parent, i)
			b, d, rerr := it.run(ctx)
			e.rec.end(id)
			elapsed[k] = append(elapsed[k], ms(d))
			switch {
			case rerr != nil:
				err = rerr
			case !bytes.Equal(b, ref[k]):
				err = fmt.Errorf("%s: report bytes differ from the serial reference", it.key)
			}
		}
		return pointsPerPass, err
	}
	if _, err := s.unit(-1, -1); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	for k := range elapsed {
		elapsed[k] = nil
	}
	s.layers = func(w *window) map[string]float64 {
		out := make(map[string]float64)
		for k, it := range sweepItems {
			out["scenario."+it.key+"_ms"] = median(elapsed[k])
		}
		// Same-run ratios: a serial pass against the window's own
		// passes, and mixed-traffic on one kernel against two.
		var serial, k1, k2 []float64
		mixed := sweepItems[3]
		for r := 0; r < 3; r++ {
			var pass time.Duration
			for _, it := range sweepItems {
				_, d, _ := it.run(ctx, core.WithShards(1))
				pass += d
			}
			serial = append(serial, ms(pass))
			_, d1, _ := mixed.run(ctx, core.WithShards(1), core.WithKernels(1))
			_, d2, _ := mixed.run(ctx, core.WithShards(1), core.WithKernels(2))
			k1, k2 = append(k1, ms(d1)), append(k2, ms(d2))
		}
		out["core.shard_speedup_x"] = median(serial) / median(w.unitMS)
		out["pdes.kernels2_x"] = median(k1) / median(k2)
		return out
	}
	return s, nil
}
