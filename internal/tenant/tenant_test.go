package tenant

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// VT reports a tenant's current virtual time (0 for unknown tenants).
func (s *Scheduler) VT(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vt[name]
}

func TestLoadConfig(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.json")
	cfg := `{"tenants":[
		{"name":"climate","token":"tok-climate","class":"high","max_in_flight":64},
		{"name":"video","token":"tok-video"},
		{"name":"archive","token":"tok-archive","class":"bulk"}
	]}`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tenants()) != 3 {
		t.Fatalf("got %d tenants, want 3", len(r.Tenants()))
	}
	climate, ok := r.Authenticate("Bearer tok-climate")
	if !ok || climate.Name != "climate" {
		t.Fatalf("Authenticate(bearer) = %v, %v", climate, ok)
	}
	if climate.Weight() != 4 || climate.MaxInFlight != 64 {
		t.Fatalf("climate weight=%v maxInFlight=%d, want 4, 64", climate.Weight(), climate.MaxInFlight)
	}
	video, ok := r.Authenticate("tok-video") // bare token accepted too
	if !ok || video.Name != "video" || video.Class != Normal {
		t.Fatalf("bare-token auth = %v, %v (class %q)", video, ok, video.Class)
	}
	if _, ok := r.Authenticate("Bearer nope"); ok {
		t.Fatal("unknown token authenticated")
	}
	if _, ok := r.Authenticate(""); ok {
		t.Fatal("empty token authenticated")
	}
	if got := r.ByName("archive"); got == nil || got.Weight() != 1 {
		t.Fatalf("ByName(archive) = %v", got)
	}
}

func TestLoadConfigRejectsBadEntries(t *testing.T) {
	cases := []struct {
		name string
		ts   []*Tenant
		want string
	}{
		{"empty", nil, "no tenants"},
		{"noname", []*Tenant{{Token: "t"}}, "no name"},
		{"notoken", []*Tenant{{Name: "a"}}, "no token"},
		{"badclass", []*Tenant{{Name: "a", Token: "t", Class: "urgent"}}, "unknown class"},
		{"dupname", []*Tenant{{Name: "a", Token: "t1"}, {Name: "a", Token: "t2"}}, "duplicate name"},
		{"duptoken", []*Tenant{{Name: "a", Token: "t"}, {Name: "b", Token: "t"}}, "token"},
		{"negcap", []*Tenant{{Name: "a", Token: "t", MaxInFlight: -1}}, "max_in_flight"},
	}
	for _, c := range cases {
		if _, err := NewRegistry(c.ts); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestSchedulerWeightedShares(t *testing.T) {
	s := NewScheduler()
	s.SetWeight("high", 4)
	s.SetWeight("bulk", 1)
	cands := []string{"high", "bulk"}
	grants := map[string]int{}
	// Simulate saturation: every pick is charged one point.
	for i := 0; i < 500; i++ {
		w := s.Pick(cands)
		grants[w]++
		s.Charge(w, 1)
	}
	ratio := float64(grants["high"]) / float64(grants["bulk"])
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("high/bulk grant ratio = %.2f (grants %v), want ~4", ratio, grants)
	}
}

func TestSchedulerLateJoinerStartsAtFloor(t *testing.T) {
	s := NewScheduler()
	s.SetWeight("old", 1)
	s.SetWeight("new", 1)
	s.Charge("old", 1000)
	// A tenant joining now must not replay the past: it starts at the
	// current floor, so it does not get 1000 free points.
	if vt := s.VT("old"); vt != 1000 {
		t.Fatalf("old vt = %v, want 1000", vt)
	}
	if got := s.Pick([]string{"old", "new"}); got != "old" {
		t.Fatalf("Pick = %q, want old (late joiner ties at the floor; FIFO breaks the tie)", got)
	}
	if vt := s.VT("new"); vt != 1000 {
		t.Fatalf("new vt = %v, want floor 1000", vt)
	}
}

// TestRefundPreventsPriorityInversion is the regression test for lease
// expiry requeues: a high-priority tenant whose lease dies must get
// its unserved charge back, or the requeued work would wait behind
// lower-priority tenants and be double-billed when re-leased.
func TestRefundPreventsPriorityInversion(t *testing.T) {
	s := NewScheduler()
	s.SetWeight("high", 4)
	s.SetWeight("bulk", 1)
	s.Charge("high", 8) // lease of 8 points granted: vt 2
	s.Charge("bulk", 2) // vt 2 — tied with high
	// The high tenant's lease expires with nothing streamed; the
	// coordinator requeues all 8 points and refunds the charge.
	s.Refund("high", 8)
	if vt := s.VT("high"); vt != 0 {
		t.Fatalf("high vt after refund = %v, want 0", vt)
	}
	if got := s.Pick([]string{"bulk", "high"}); got != "high" {
		t.Fatalf("Pick after expiry refund = %q, want high (inversion!)", got)
	}
	// Without the refund the requeued points would be charged twice;
	// with it, re-granting the same lease lands vt exactly where one
	// grant would have.
	s.Charge("high", 8)
	if vt := s.VT("high"); vt != 2 {
		t.Fatalf("high vt after re-grant = %v, want 2 (single charge)", vt)
	}
}

func TestSchedulerOrderStableTies(t *testing.T) {
	s := NewScheduler()
	s.SetWeight("a", 1)
	s.SetWeight("b", 1)
	s.SetWeight("c", 2)
	s.Pick([]string{"a", "b", "c"}) // admit everyone at floor 0
	s.Charge("a", 3)
	s.Charge("b", 3)
	s.Charge("c", 2)
	got := s.Order([]string{"a", "b", "c"})
	// c has vt 1; a and b tie at 3 and keep submission order.
	want := []string{"c", "a", "b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Order = %v, want %v", got, want)
		}
	}
}

func TestRefundClampsAtZero(t *testing.T) {
	s := NewScheduler()
	s.SetWeight("a", 1)
	s.Charge("a", 2)
	s.Refund("a", 10)
	if vt := s.VT("a"); vt != 0 {
		t.Fatalf("vt = %v, want clamp at 0", vt)
	}
}
