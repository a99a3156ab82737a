// Package obs is a dependency-free metrics registry for the
// coordinator's observability surface: counters, gauges and histograms
// with atomic hot paths, rendered in the Prometheus text exposition
// format.
//
// The design splits the cost asymmetrically. Registration and label
// resolution take locks and may allocate; they happen once, at wiring
// time. The instruments themselves — Inc, Add, Set, Observe — are plain
// atomics on pre-resolved pointers and never allocate, so they can sit
// on the point execution hot path (a pinned AllocsPerRun test holds
// them to zero). Rendering walks the registry under its lock and writes
//
//	# HELP gtw_points_run_total Points computed fresh.
//	# TYPE gtw_points_run_total counter
//	gtw_points_run_total{tenant="climate"} 42
//
// which any Prometheus-compatible scraper ingests as-is.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A Counter is a monotonically increasing integer. Inc and Add are
// single atomic ops: zero allocations, safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; negative deltas are ignored so a counter
// never runs backwards).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// A Gauge is a float64 that can go up and down, stored as atomic bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta via a CAS loop; no allocations.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value reads the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// A Histogram counts observations into fixed buckets (cumulative at
// render time, per-bucket atomics at observe time). Observe is a
// linear scan over the bounds plus two atomic adds — zero allocations.
type Histogram struct {
	bounds []float64      // upper bounds, ascending; +Inf implicit
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
	count  atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			break
		}
	}
	h.count.Add(1)
}

// Count reads the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reads the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DefBuckets covers sub-millisecond point runs through minute-scale
// sweeps — the spread of job latencies gtwd actually sees.
var DefBuckets = []float64{.001, .005, .01, .05, .1, .5, 1, 5, 10, 30, 60, 300}

// family is one named metric with all its label series.
type family struct {
	name, help, kind string
	label            string // label key for vectors, "" for scalars
	buckets          []float64

	series map[string]any // label value ("" for scalars) -> instrument
}

// A CounterVec is a counter family keyed by one label. Resolve series
// once with With and cache the *Counter for hot paths.
type CounterVec struct {
	r   *Registry
	fam *family
}

// With returns the counter for the given label value, creating it on
// first use.
func (v *CounterVec) With(value string) *Counter {
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	c, ok := v.fam.series[value]
	if !ok {
		c = &Counter{}
		v.fam.series[value] = c
	}
	return c.(*Counter)
}

// A GaugeVec is a gauge family keyed by one label.
type GaugeVec struct {
	r   *Registry
	fam *family
}

// With returns the gauge for the given label value, creating it on
// first use.
func (v *GaugeVec) With(value string) *Gauge {
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	g, ok := v.fam.series[value]
	if !ok {
		g = &Gauge{}
		v.fam.series[value] = g
	}
	return g.(*Gauge)
}

// Registry holds metric families in registration order. All lookups
// are idempotent: re-registering a name returns the existing
// instrument, and a kind clash panics (it is a wiring bug, not a
// runtime condition).
type Registry struct {
	mu     sync.Mutex
	order  []*family
	byName map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) familyLocked(name, help, kind, label string) *family {
	f, ok := r.byName[name]
	if ok {
		if f.kind != kind || f.label != label {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s(label=%q), was %s(label=%q)",
				name, kind, label, f.kind, f.label))
		}
		return f
	}
	f = &family{name: name, help: help, kind: kind, label: label, series: make(map[string]any)}
	r.order = append(r.order, f)
	r.byName[name] = f
	return f
}

// Counter registers (or fetches) a scalar counter.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, "counter", "")
	c, ok := f.series[""]
	if !ok {
		c = &Counter{}
		f.series[""] = c
	}
	return c.(*Counter)
}

// CounterVec registers (or fetches) a counter family keyed by label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &CounterVec{r: r, fam: r.familyLocked(name, help, "counter", label)}
}

// Gauge registers (or fetches) a scalar gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, "gauge", "")
	g, ok := f.series[""]
	if !ok {
		g = &Gauge{}
		f.series[""] = g
	}
	return g.(*Gauge)
}

// GaugeVec registers (or fetches) a gauge family keyed by label.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &GaugeVec{r: r, fam: r.familyLocked(name, help, "gauge", label)}
}

// Histogram registers (or fetches) a histogram with the given bucket
// upper bounds (nil means DefBuckets). Bounds must be ascending.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, "histogram", "")
	h, ok := f.series[""]
	if !ok {
		bounds := append([]float64(nil), buckets...)
		h = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
		f.series[""] = h
		f.buckets = bounds
	}
	return h.(*Histogram)
}

// WriteText renders every family in the Prometheus text exposition
// format: families in registration order, series sorted by label value
// so output is deterministic.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.order...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		r.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		series := make([]any, len(keys))
		for i, k := range keys {
			series[i] = f.series[k]
		}
		r.mu.Unlock()
		if len(series) == 0 {
			continue
		}
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for i, k := range keys {
			switch m := series[i].(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, labelPair(f.label, k), m.Value())
			case *Gauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelPair(f.label, k), formatFloat(m.Value()))
			case *Histogram:
				cum := int64(0)
				for bi, bound := range m.bounds {
					cum += m.counts[bi].Load()
					fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", f.name, formatFloat(bound), cum)
				}
				cum += m.counts[len(m.bounds)].Load()
				fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", f.name, cum)
				fmt.Fprintf(&b, "%s_sum %s\n", f.name, formatFloat(m.Sum()))
				fmt.Fprintf(&b, "%s_count %d\n", f.name, m.Count())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func labelPair(key, value string) string {
	if key == "" {
		return ""
	}
	return "{" + key + "=" + strconv.Quote(value) + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
