package tenant

import "sync"

// Scheduler is a weighted fair-share arbiter over tenants, in the
// classic virtual-time shape: each tenant accumulates virtual time at
// rate served/weight, and the next grant goes to the eligible tenant
// with the least virtual time. A high-weight tenant's clock advances
// slower per point, so at saturation it receives proportionally more
// service; an idle tenant rejoins at the current floor rather than at
// zero, so it cannot bank unused capacity and then monopolize the
// queue.
//
// Charges happen at lease grant, when points leave the queue. A lease
// that expires gives its unserved points back via Refund — without the
// refund, a tenant whose worker died would stay billed for work that
// was requeued and is about to be billed again, sliding it behind
// lower-priority tenants (the priority inversion pinned by
// TestRefundPreventsPriorityInversion).
type Scheduler struct {
	mu     sync.Mutex
	vt     map[string]float64 // virtual time per tenant
	weight map[string]float64
}

// NewScheduler builds an empty scheduler; tenants join on first use.
func NewScheduler() *Scheduler {
	return &Scheduler{vt: make(map[string]float64), weight: make(map[string]float64)}
}

// SetWeight fixes a tenant's fair-share weight (default 1 if never
// set; weights <= 0 are ignored).
func (s *Scheduler) SetWeight(name string, w float64) {
	if w <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.weight[name] = w
}

func (s *Scheduler) weightLocked(name string) float64 {
	if w, ok := s.weight[name]; ok {
		return w
	}
	return 1
}

// ensureLocked admits a tenant at the current virtual-time floor so a
// late joiner competes from "now" instead of replaying the past.
func (s *Scheduler) ensureLocked(name string) {
	if _, ok := s.vt[name]; ok {
		return
	}
	floor := 0.0
	first := true
	for _, v := range s.vt {
		if first || v < floor {
			floor, first = v, false
		}
	}
	s.vt[name] = floor
}

// Charge bills a tenant for points granted to it.
func (s *Scheduler) Charge(name string, points int) {
	if points <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureLocked(name)
	s.vt[name] += float64(points) / s.weightLocked(name)
}

// Refund returns the unserved part of an expired or abandoned lease,
// clamped so a tenant's clock never runs below the admission floor of
// zero.
func (s *Scheduler) Refund(name string, points int) {
	if points <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureLocked(name)
	s.vt[name] -= float64(points) / s.weightLocked(name)
	if s.vt[name] < 0 {
		s.vt[name] = 0
	}
}

// Pick returns the candidate with the least virtual time, breaking
// ties by candidate order (callers pass submission order, so ties are
// FIFO). Empty candidates return "".
func (s *Scheduler) Pick(candidates []string) string {
	if len(candidates) == 0 {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	best := ""
	bestVT := 0.0
	for _, name := range candidates {
		s.ensureLocked(name)
		if v := s.vt[name]; best == "" || v < bestVT {
			best, bestVT = name, v
		}
	}
	return best
}

// Order returns the candidates sorted by ascending virtual time
// (stable: ties keep candidate order). The lease handler walks this to
// find the first tenant with grantable work.
func (s *Scheduler) Order(candidates []string) []string {
	out := append([]string(nil), candidates...)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, name := range out {
		s.ensureLocked(name)
	}
	// Insertion sort: candidate lists are tenant-count sized (small),
	// and stability gives FIFO tie-breaks for free.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && s.vt[out[j]] < s.vt[out[j-1]]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
