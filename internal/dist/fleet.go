package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/tenant"
)

// The client-fleet scenario is the control plane's load test: it spins
// up a multi-tenant coordinator on loopback, a pool of workers, and N
// tenant clients with cycling priority classes, then drives two phases
// through the real HTTP protocol:
//
//  1. Contention — every tenant concurrently submits a tenant-unique
//     grid (distinct Frames, so distinct point keys) onto the shared
//     worker pool. When the first job completes, the per-tenant service
//     counters are sampled: under saturation the weighted fair-share
//     scheduler should have served tenants roughly in proportion to
//     their class weights.
//  2. Reuse — one tenant computes a shared grid, then every other
//     tenant submits the identical options. Tenancy never reaches
//     point keys, so the rest must be served entirely from the
//     content-addressed store (Cached=true) without re-simulating.
//
// The report carries the sampled shares and reuse flags; the
// accompanying test asserts the fair-share ordering and full reuse at
// small N, which is also how CI runs it.

// fleetUnitPoints and fleetUnitDelay shape one tenant's sweep: enough
// points, each slow enough, that the tenants' grids overlap in time on
// a small worker pool and the fair-share window is observable.
const (
	fleetUnitPoints = 16
	fleetUnitDelay  = 3 * time.Millisecond
)

func init() {
	vals := make([]any, fleetUnitPoints)
	for i := range vals {
		vals[i] = i
	}
	core.MustRegister(core.NewSweep("client-fleet-unit",
		"One tenant's grid inside the client-fleet load test.",
		[]core.Axis{{Name: "i", Values: vals}},
		func(ctx context.Context, tb *core.Testbed, opts core.Options, pt core.Point) (any, error) {
			// Emulated compute: the sleep forces leases to spread over
			// the pool so tenants actually contend.
			time.Sleep(fleetUnitDelay)
			i := pt.Coord(0).(int)
			return core.Figure1Row{
				Path: fmt.Sprintf("grid %d point %d", opts.Frames, i),
				Mbps: float64((i+1)*(opts.Frames%97)) + 0.5,
				Note: "client-fleet unit",
			}, nil
		},
		func(opts core.Options, results []any) (core.Report, error) {
			rep := &core.Figure1Report{}
			for _, r := range results {
				rep.Rows = append(rep.Rows, r.(core.Figure1Row))
			}
			return rep, nil
		}).NoShardTestbed().WirePoint(core.Figure1Row{}).PointDeps(core.OptFrames))

	core.MustRegister(core.NewScenario("client-fleet",
		"Multi-tenant control-plane load test: N tenants, overlapping sweeps, fair-share and store-reuse measurement.",
		runClientFleet))
}

// FleetTenantRow is one tenant's outcome in the client-fleet report.
type FleetTenantRow struct {
	Name   string  `json:"name"`
	Class  string  `json:"class"`
	Weight float64 `json:"weight"`
	// ContentionRun is the tenant's points computed at the moment the
	// first tenant finished — the fair-share sample.
	ContentionRun int64 `json:"contention_run"`
	// PointsRun/PointsHit are the tenant's lifetime counters at the end
	// of the run.
	PointsRun int64 `json:"points_run"`
	PointsHit int64 `json:"points_hit"`
	// SharedCached reports whether the tenant's phase-2 job was served
	// entirely from the store (always false for the tenant that
	// computed the shared grid).
	SharedCached bool `json:"shared_cached"`
}

// FleetReport is the client-fleet scenario's report. It is operational
// telemetry — a load-test outcome, not a paper figure — so its numbers
// vary run to run; the invariants (fair-share ordering, full reuse)
// are what the fleet test asserts.
type FleetReport struct {
	Tenants    []FleetTenantRow `json:"tenants"`
	Workers    int              `json:"workers"`
	GridPoints int              `json:"grid_points"`
}

// Text renders the fleet outcome as a table.
func (r *FleetReport) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "client-fleet: %d tenant(s), %d worker(s), %d-point grids\n",
		len(r.Tenants), r.Workers, r.GridPoints)
	fmt.Fprintf(&b, "%-12s %-7s %6s %15s %10s %10s %7s\n",
		"tenant", "class", "weight", "contention_run", "points_run", "points_hit", "cached")
	for _, t := range r.Tenants {
		fmt.Fprintf(&b, "%-12s %-7s %6.0f %15d %10d %10d %7v\n",
			t.Name, t.Class, t.Weight, t.ContentionRun, t.PointsRun, t.PointsHit, t.SharedCached)
	}
	return b.String()
}

// JSON renders the fleet outcome as JSON.
func (r *FleetReport) JSON() ([]byte, error) { return json.Marshal(r) }

func runClientFleet(ctx context.Context, _ *core.Testbed, opts core.Options) (core.Report, error) {
	// -flows N sets the tenant count, -shards N the worker pool; both
	// stay small by default so the scenario is CI-runnable.
	nTenants := opts.Flows
	if nTenants <= 0 {
		nTenants = 3
	}
	workers := opts.Shards
	if workers <= 0 {
		workers = 2
	}

	classes := []tenant.Class{tenant.High, tenant.Normal, tenant.Bulk}
	tens := make([]*tenant.Tenant, nTenants)
	for i := range tens {
		tens[i] = &tenant.Tenant{
			Name:  fmt.Sprintf("fleet-%d", i),
			Token: fmt.Sprintf("fleet-token-%d", i),
			Class: classes[i%len(classes)],
		}
	}
	reg, err := tenant.NewRegistry(tens)
	if err != nil {
		return nil, fmt.Errorf("client-fleet: %w", err)
	}

	coord := New(Config{
		Tenants:     reg,
		LocalShards: -1, // pure remote: every point through the fair-share lease path
		LeaseTTL:    2 * time.Second,
		MaxJobs:     nTenants + 1, // contention happens at the lease queue, not admission
	})
	defer coord.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("client-fleet: %w", err)
	}
	srv := &http.Server{Handler: coord.Handler()}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	wctx, wcancel := context.WithCancel(ctx)
	var wwg sync.WaitGroup
	defer func() {
		wcancel()
		wwg.Wait()
	}()
	for i := 0; i < workers; i++ {
		w := NewWorker(base)
		w.Token = tens[0].Token
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			_ = w.Run(wctx)
		}()
	}

	clients := make([]*Client, nTenants)
	for i := range clients {
		clients[i] = &Client{Base: base, Token: tens[i].Token}
	}

	// Phase 1: contention. Tenant-unique Frames values keep the grids'
	// point keys disjoint, so nothing is served from the store and
	// every point goes through the fair-share lease path.
	var snapOnce sync.Once
	var snapshot *StatusReply
	errs := make([]error, nTenants)
	var jwg sync.WaitGroup
	for i := range clients {
		jwg.Add(1)
		go func(i int) {
			defer jwg.Done()
			st, err := clients[i].Run(ctx, JobRequest{
				Scenario: "client-fleet-unit",
				Opts:     WireOptions{Frames: 1000 + i},
			})
			if err == nil && st.Status != JobDone {
				err = fmt.Errorf("tenant %s job %s: %s (%s)", tens[i].Name, st.ID, st.Status, st.Error)
			}
			errs[i] = err
			snapOnce.Do(func() {
				// First completion: sample every tenant's service while
				// the others are still mid-grid.
				if s, serr := clients[i].Status(ctx); serr == nil {
					snapshot = s
				}
			})
		}(i)
	}
	jwg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("client-fleet contention phase: %w", err)
		}
	}

	// Phase 2: reuse. Tenant 0 computes the shared grid; every other
	// tenant submits the identical options and should come back Cached
	// (tenancy never reaches point keys).
	shared := JobRequest{Scenario: "client-fleet-unit", Opts: WireOptions{Frames: 7}}
	cached := make([]bool, nTenants)
	for i := 0; i < nTenants; i++ {
		st, err := clients[i].Run(ctx, shared)
		if err != nil {
			return nil, fmt.Errorf("client-fleet reuse phase (tenant %s): %w", tens[i].Name, err)
		}
		if st.Status != JobDone {
			return nil, fmt.Errorf("client-fleet reuse phase: tenant %s job %s: %s (%s)",
				tens[i].Name, st.ID, st.Status, st.Error)
		}
		cached[i] = st.Cached
	}

	final, err := clients[0].Status(ctx)
	if err != nil {
		return nil, fmt.Errorf("client-fleet: final status: %w", err)
	}
	contention := make(map[string]int64)
	if snapshot != nil {
		for _, ts := range snapshot.Tenants {
			contention[ts.Name] = ts.PointsRun
		}
	}
	rep := &FleetReport{Workers: workers, GridPoints: fleetUnitPoints}
	for i, t := range tens {
		row := FleetTenantRow{
			Name: t.Name, Class: string(t.Class), Weight: t.Weight(),
			ContentionRun: contention[t.Name],
			SharedCached:  cached[i],
		}
		for _, ts := range final.Tenants {
			if ts.Name == t.Name {
				row.PointsRun, row.PointsHit = ts.PointsRun, ts.PointsHit
			}
		}
		rep.Tenants = append(rep.Tenants, row)
	}
	return rep, nil
}
