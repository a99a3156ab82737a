package dist

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tenant"
)

// This file tests the scheduler alone, on a synthetic clock: no HTTP,
// no journal, no sleeping — "later" is an argument. The end-to-end
// versions of the same properties (through handlers and a real reaper)
// stay in tenant_test.go and stream_test.go.

// t0 is the synthetic clock's origin.
var t0 = time.Date(1999, 8, 3, 9, 0, 0, 0, time.UTC)

const testTTL = 10 * time.Second

func newTestScheduler(maxJobs int, tenants ...*tenant.Tenant) *scheduler {
	s := newScheduler(testTTL, maxJobs, 16)
	for _, t := range tenants {
		s.fair.SetWeight(t.Name, t.Weight())
	}
	return s
}

// addJob enters a job for t in status; a running one gets a grid of
// `points` points carved for `workers` expected consumers.
func addJob(s *scheduler, t *tenant.Tenant, status string, points, workers int) *job {
	j := &job{scenario: "sched-test", status: status, tenant: t, done: make(chan struct{})}
	if status == JobRunning {
		vals := make([]any, points)
		sw := core.NewSweep("sched-test", "", []core.Axis{{Name: "i", Values: vals}}, nil, nil)
		j.run = core.NewSweepRun(sw, core.Options{}, core.NewWorkStealingDispatcher(points, workers), 0)
	}
	s.mu.Lock()
	s.addLocked(j)
	s.mu.Unlock()
	return j
}

func grant(t *testing.T, s *scheduler, worker string, now time.Time) *leaseRec {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.grantLocked(worker, now)
	if !ok {
		t.Fatalf("no lease for %s", worker)
	}
	return rec
}

func woken(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// A lease expires exactly one TTL after the last time its worker was
// heard from — not a nanosecond before — and an upload pushes that out.
func TestSchedulerExpiry(t *testing.T) {
	type probe struct {
		at   time.Duration
		want int
	}
	for _, tc := range []struct {
		name     string
		extendAt time.Duration // 0: the worker is never heard from again
		probes   []probe
	}{
		{"not before the TTL", 0, []probe{{testTTL - time.Nanosecond, 0}}},
		{"exactly at the TTL", 0, []probe{{testTTL - time.Nanosecond, 0}, {testTTL, 1}, {testTTL + time.Second, 0}}},
		{"an upload pushes it out", 6 * time.Second,
			[]probe{{testTTL, 0}, {16*time.Second - time.Nanosecond, 0}, {16 * time.Second, 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			alpha := &tenant.Tenant{Name: "alpha", Class: tenant.Normal}
			s := newTestScheduler(4, alpha)
			j := addJob(s, alpha, JobRunning, 40, 4)
			rec := grant(t, s, "w", t0)
			n := rec.lease.Points()
			if tc.extendAt > 0 {
				if _, ok := s.extend(rec.key(), t0.Add(tc.extendAt)); !ok {
					t.Fatal("extend of an outstanding lease reported it gone")
				}
			}
			for _, p := range tc.probes {
				wake := s.wake
				got := s.expire(t0.Add(p.at))
				if len(got) != p.want {
					t.Fatalf("expire at +%s gave up on %d lease(s), want %d", p.at, len(got), p.want)
				}
				if p.want == 0 {
					continue
				}
				if got[0] != rec || rec.requeued != n {
					t.Errorf("expired %+v requeueing %d, want the %d-point lease whole", got[0].lease, got[0].requeued, n)
				}
				if !woken(wake) {
					t.Error("the requeue woke no parked ask")
				}
				if pending := j.run.Queue().Pending(); pending != 40 || s.inflight["alpha"] != 0 {
					t.Errorf("after expiry %d pending, %d in flight; want 40 and 0", pending, s.inflight["alpha"])
				}
				if _, ok := s.extend(rec.key(), t0.Add(p.at)); ok {
					t.Error("an expired lease can still be extended")
				}
			}
		})
	}
}

// Expiry refunds — and requeues — only what the worker had not
// delivered. With nothing delivered the high tenant is back level with
// the bulk one and wins the tie again (no priority inversion); with k
// points delivered it stays billed for exactly those, and its next
// lease starts behind them.
func TestSchedulerExpiryRefundsOnlyUnstreamed(t *testing.T) {
	for _, k := range []int{0, 2} {
		t.Run(strconv.Itoa(k)+" delivered", func(t *testing.T) {
			alpha := &tenant.Tenant{Name: "alpha", Class: tenant.High}
			beta := &tenant.Tenant{Name: "beta", Class: tenant.Bulk}
			s := newTestScheduler(4, alpha, beta)
			ja := addJob(s, alpha, JobRunning, 40, 4)
			jb := addJob(s, beta, JobRunning, 40, 4)
			rec := grant(t, s, "w-dead", t0)
			if rec.job != ja {
				t.Fatalf("first lease went to %s, want alpha's (submitted first, equal virtual time)", rec.job.tenant.Name)
			}
			n, lo := rec.lease.Points(), rec.lease.Lo
			if n <= k {
				t.Fatalf("first lease has %d point(s), too few to deliver %d and leave a tail", n, k)
			}
			for i := 0; i < k; i++ {
				rec.run.DeliverPoint(rec.lease, lo+i, nil, "")
			}
			if got := s.expire(t0.Add(testTTL)); len(got) != 1 || got[0].requeued != n-k {
				t.Fatalf("expiry gave up on %d lease(s), want one requeueing %d of %d", len(got), n-k, n)
			}
			if vt, want := s.fair.VT("alpha"), float64(k)/alpha.Weight(); vt != want {
				t.Errorf("alpha's virtual time after the refund is %v, want %v (billed for the %d delivered only)", vt, want, k)
			}
			if pending := ja.run.Queue().Pending(); pending != 40-k {
				t.Errorf("alpha's queue has %d pending, want %d", pending, 40-k)
			}
			next := grant(t, s, "w-live", t0.Add(testTTL))
			if k == 0 {
				if next.job != ja || next.lease.Lo != lo {
					t.Errorf("post-expiry lease: %s [%d,…), want alpha's requeued points from %d (priority inversion)",
						next.job.tenant.Name, next.lease.Lo, lo)
				}
				return
			}
			if next.job != jb {
				t.Fatalf("alpha, billed for %d point(s), was granted ahead of beta at zero", k)
			}
			if again := grant(t, s, "w-live", t0.Add(testTTL)); again.job != ja || again.lease.Lo != lo+k {
				t.Errorf("alpha's re-lease starts at %d, want %d: the delivered points must not be re-run", again.lease.Lo, lo+k)
			}
		})
	}
}

// With a high and a bulk tenant both saturated, every grant goes to the
// tenant with the smaller virtual time (served/weight), and the bulk
// tenant is served while the high one still has work.
func TestSchedulerGrantsFollowWeightedFairShare(t *testing.T) {
	alpha := &tenant.Tenant{Name: "alpha", Class: tenant.High}
	beta := &tenant.Tenant{Name: "beta", Class: tenant.Bulk}
	s := newTestScheduler(4, alpha, beta)
	ja := addJob(s, alpha, JobRunning, 40, 4)
	addJob(s, beta, JobRunning, 40, 4)
	served := map[*tenant.Tenant]int{}
	betaFirst := -1
	for g := 0; ; g++ {
		s.mu.Lock()
		rec, ok := s.grantLocked("w", t0)
		s.mu.Unlock()
		if !ok {
			break
		}
		mine, other := alpha, beta
		if rec.job != ja {
			mine, other = beta, alpha
			if betaFirst < 0 {
				betaFirst = g
			}
		}
		if vm, vo := float64(served[mine])/mine.Weight(), float64(served[other])/other.Weight(); served[alpha] < 40 && served[beta] < 40 && vm > vo+1e-9 {
			t.Errorf("grant %d went to %s at virtual time %.2f > %s's %.2f", g, mine.Name, vm, other.Name, vo)
		}
		served[mine] += rec.lease.Points()
	}
	if served[alpha] != 40 || served[beta] != 40 {
		t.Fatalf("grids not fully granted: alpha %d, beta %d", served[alpha], served[beta])
	}
	if betaFirst < 0 || betaFirst > 8 {
		t.Errorf("beta's first grant came at index %d; bulk tenant starved", betaFirst)
	}
}

// MaxInFlight caps a tenant's leased points; the lease that takes it
// back under the cap — completed or given up on — wakes the parked asks.
func TestSchedulerMaxInFlightCapAndWake(t *testing.T) {
	for _, how := range []string{"retired", "dropped"} {
		t.Run(how, func(t *testing.T) {
			alpha := &tenant.Tenant{Name: "alpha", Class: tenant.Normal, MaxInFlight: 6}
			s := newTestScheduler(4, alpha)
			addJob(s, alpha, JobRunning, 40, 1) // one expected worker: the first lease is 20 points
			rec := grant(t, s, "w-0", t0)
			if rec.lease.Points() < 6 {
				t.Fatalf("first lease only %d points; cap not reached", rec.lease.Points())
			}
			s.mu.Lock()
			defer s.mu.Unlock()
			if l, ok := s.grantLocked("w-1", t0); ok {
				t.Fatalf("lease %+v granted past MaxInFlight=6 with %d points outstanding", l.lease, rec.lease.Points())
			}
			wake := s.wake
			if how == "retired" {
				s.retireLocked(rec)
			} else {
				s.dropLocked(rec)
			}
			if !woken(wake) {
				t.Error("dropping under the cap woke no parked ask")
			}
			if _, ok := s.grantLocked("w-1", t0); !ok {
				t.Error("no lease once the tenant is back under its cap")
			}
		})
	}
}

// Admission at MaxJobs is fair across tenants: with the one slot held by
// alpha's first job and alpha's backlog queued ahead of it, beta's first
// job is the next admission; shutdown fails whoever still waits.
func TestSchedulerFairAdmission(t *testing.T) {
	alpha := &tenant.Tenant{Name: "alpha", Class: tenant.Normal}
	beta := &tenant.Tenant{Name: "beta", Class: tenant.Normal}
	s := newTestScheduler(1, alpha, beta)
	a1 := addJob(s, alpha, JobQueued, 0, 0)
	a2 := addJob(s, alpha, JobQueued, 0, 0)
	a3 := addJob(s, alpha, JobQueued, 0, 0)
	b1 := addJob(s, beta, JobQueued, 0, 0)
	if err := s.admit(a1); err != nil { // a free slot and the oldest job of the tied tenants: at once
		t.Fatal(err)
	}
	s.fair.Charge("alpha", 5) // a1 runs and leases points

	type admission struct {
		j   *job
		err error
	}
	admitted := make(chan admission)
	for _, j := range []*job{a2, a3, b1} {
		go func() { admitted <- admission{j, s.admit(j)} }()
	}
	next := func(what string) admission {
		t.Helper()
		select {
		case a := <-admitted:
			return a
		case <-time.After(10 * time.Second):
			t.Fatalf("nothing admitted: %s", what)
			return admission{}
		}
	}
	s.release()
	if got := next("after a1 released its slot"); got.j != b1 || got.err != nil {
		t.Fatalf("slot went to %s (%v), want beta's job-4 ahead of alpha's backlog", got.j.id, got.err)
	}
	s.fair.Charge("beta", 50)
	s.release()
	if got := next("after b1 released its slot"); got.j != a2 || got.err != nil {
		t.Fatalf("slot went to %s (%v), want alpha's oldest queued job-2", got.j.id, got.err)
	}
	s.shutdown()
	if got := next("after shutdown"); got.j != a3 || got.err == nil {
		t.Fatalf("shutdown answered %s with %v, want job-3 failed", got.j.id, got.err)
	}
	if s.running != 1 {
		t.Errorf("%d slot(s) held, want the 1 a2 never released", s.running)
	}
}

// Pinning the seam: scheduler.go must stay free of transport, encoding,
// file and journal dependencies and must never read the clock or start
// a timer — and its tests above must not sleep.
func TestSchedulerSeam(t *testing.T) {
	clock := []string{"Now", "Since", "Until", "NewTimer", "NewTicker", "After", "AfterFunc", "Tick", "Sleep"}
	for file, rule := range map[string]struct{ imports, timeCalls []string }{
		"scheduler.go":      {[]string{"net/http", "encoding/json", "os", "repro/internal/persist"}, clock},
		"scheduler_test.go": {nil, []string{"Sleep"}},
	} {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); slices.Contains(rule.imports, path) {
				t.Errorf("%s imports %s", file, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" && slices.Contains(rule.timeCalls, sel.Sel.Name) {
					t.Errorf("%s uses time.%s", file, sel.Sel.Name)
				}
			}
			return true
		})
	}
}
