package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Layers a span can be charged to. They are the repo's packages grouped
// the way ROADMAP aim 1 walks the stack; "bench" is the benchmark's own
// time (input generation, output checks, the gaps between calls).
const (
	layerBench = "bench"
	layerCore  = "core" // run engine, sweep executor, point evaluation on a worker
	layerApps  = "apps" // the section-3/4 applications and internal/mpi under them
	layerSim   = "sim"  // sim + netsim + tcpsim + pdes, reached through a scenario
	layerDist  = "dist" // HTTP round trips and waiting on the coordinator
)

var layers = []string{layerBench, layerCore, layerApps, layerSim, layerDist}

// Chrome trace lanes (tid). Lanes 1..laneScrape-1 are the concurrent
// executors: dist workers, or RunAll's pool slots.
const (
	laneClient = 0
	laneScrape = 9
)

// span is one timed call the benchmark made into a layer, recorded
// from outside the program.
type span struct {
	Name       string
	Layer      string
	Lane       int
	Start, End time.Duration // since the recorder started
	Parent     int           // index of the span that caused this one, -1 for a root
	Unit       int           // the unit all spans of one request share, -1 outside units
	// job is the dist job a worker-lane span served; resolve turns it
	// into Parent once the client has learned the job's ID.
	job string
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	jobs  map[string]int // dist job ID -> the client's wait span for it
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), jobs: make(map[string]int)}
}

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name, layer string, lane, parent, unit int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Layer: layer, Lane: lane, Start: now, End: -1, Parent: parent, Unit: unit})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span whose interval is already known.
func (r *recorder) add(s span) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// at converts a wall-clock instant to recorder time.
func (r *recorder) at(t time.Time) time.Duration { return t.Sub(r.t0) }

// bindJob names the client span that worker-lane spans of job id hang
// under.
func (r *recorder) bindJob(id string, waitSpan int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.jobs[id] = waitSpan
	r.mu.Unlock()
}

// resolve closes spans still open at now and gives every worker-lane
// span its causal parent and unit. Call once, after the fleet stopped.
func (r *recorder) resolve() []span {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		s := &r.spans[i]
		if s.End < 0 {
			s.End = now
		}
		if s.job == "" {
			continue
		}
		if p, ok := r.jobs[s.job]; ok {
			s.Parent, s.Unit = p, r.spans[p].Unit
		}
	}
	// A span opened under a job-bound span (a points upload inside a
	// lease hold) was recorded before its parent knew its unit.
	for i := range r.spans {
		if p := r.spans[i].Parent; p >= 0 && r.spans[i].Unit < 0 {
			r.spans[i].Unit = r.spans[p].Unit
		}
	}
	return r.spans
}

// fold attributes the wall time of span root to layers. Every instant
// is split equally among the deepest active spans under root: a span
// is charged only while none of its children runs, and children are
// clipped to their parent's interval. For spans that follow one another
// this is the usual self time (duration minus the part children cover);
// where executors run side by side (two RunAll slots, two workers on
// one grid) the split keeps the per-layer times summing to root's
// duration instead of to the executors' combined busy time.
func fold(spans []span, root int) map[string]time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && i != root {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	type edge struct {
		t     time.Duration
		open  bool
		depth int
		id    int
	}
	var edges []edge
	var walk func(id, depth int, from, to time.Duration)
	walk = func(id, depth int, from, to time.Duration) {
		a, b := max(spans[id].Start, from), min(spans[id].End, to)
		if b <= a {
			return
		}
		edges = append(edges, edge{a, true, depth, id}, edge{b, false, depth, id})
		for _, k := range kids[id] {
			walk(k, depth+1, a, b)
		}
	}
	walk(root, 0, spans[root].Start, spans[root].End)
	// At one instant: closes before opens, inner closes first, outer
	// opens first — so a parent is always active around its children.
	sort.Slice(edges, func(i, j int) bool {
		x, y := edges[i], edges[j]
		if x.t != y.t {
			return x.t < y.t
		}
		if x.open != y.open {
			return !x.open
		}
		if x.open {
			return x.depth < y.depth
		}
		return x.depth > y.depth
	})
	out := make(map[string]time.Duration)
	running := make([]int, len(spans)) // active children per span
	leaves := make(map[string]int)     // deepest active spans per layer
	nLeaves := 0
	leaf := func(id, d int) { leaves[spans[id].Layer] += d; nLeaves += d }
	prev := spans[root].Start
	for _, e := range edges {
		if dt := e.t - prev; dt > 0 && nLeaves > 0 {
			for l, n := range leaves {
				if n > 0 {
					out[l] += dt * time.Duration(n) / time.Duration(nLeaves)
				}
			}
		}
		prev = e.t
		p := spans[e.id].Parent
		if e.id == root {
			p = -1
		}
		if e.open {
			if p >= 0 {
				if running[p] == 0 {
					leaf(p, -1)
				}
				running[p]++
			}
			leaf(e.id, +1)
			continue
		}
		leaf(e.id, -1)
		if p >= 0 {
			if running[p]--; running[p] == 0 {
				leaf(p, +1)
			}
		}
	}
	return out
}

// writeChromeTrace writes spans as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev): one complete event per span,
// lanes as threads, the layer as the category.
func writeChromeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	enc := json.NewEncoder(w) // Encode ends each event with a newline, which JSON allows
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		err = enc.Encode(event{
			Name: s.Name, Cat: s.Layer, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start),
			Pid: 1, Tid: s.Lane, Args: map[string]any{"id": i, "parent": s.Parent, "unit": s.Unit},
		})
		if err != nil {
			break
		}
	}
	w.WriteString("]}\n")
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
