package mpitrace

import (
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestRecorderWithRealMPIRun(t *testing.T) {
	net := netsim.New(sim.NewKernel())
	net.Connect(net.AddNode("a"), net.AddNode("b"), netsim.LinkConfig{Bps: 1e9, Delay: time.Millisecond})
	net.ComputeRoutes()
	rec := NewRecorder()
	took, err := mpi.RunHosts(net, []string{"a", "a", "b"}, rec, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, make([]byte, 100)); err != nil {
				return err
			}
			if err := c.Send(2, 1, make([]byte, 200)); err != nil {
				return err
			}
		} else {
			if _, err := c.Recv(0, 1); err != nil {
				return err
			}
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := rec.Stats()
	// The trace is in the run's own virtual time: rank 2, across the
	// link, waited at least one propagation delay for its message, and
	// no single operation outlasted the run.
	if stats.Ranks[2].CommTime < time.Millisecond {
		t.Errorf("rank 2 spent %v in MPI, less than the link delay", stats.Ranks[2].CommTime)
	}
	for _, e := range rec.Events() {
		if e.Duration() > took {
			t.Errorf("%s on rank %d took %v of a %v run", e.Kind, e.Rank, e.Duration(), took)
		}
	}
	if len(stats.Ranks) != 3 {
		t.Fatalf("%d ranks in stats", len(stats.Ranks))
	}
	r0 := stats.Ranks[0]
	if r0.BytesSent < 300 {
		t.Errorf("rank 0 sent %d bytes, want >= 300", r0.BytesSent)
	}
	if stats.Matrix[0][1] != 100 || stats.Matrix[0][2] != 200 {
		t.Errorf("matrix = %v", stats.Matrix)
	}
	// Barrier traffic appears as collective events (counted in
	// sends/recvs but not the p2p matrix).
	totalSends := 0
	for _, rs := range stats.Ranks {
		totalSends += rs.Sends
	}
	if totalSends <= 2 {
		t.Errorf("expected collective sends beyond the 2 p2p ones, got %d", totalSends)
	}
	text := FormatStats(stats)
	if !strings.Contains(text, "message matrix") || !strings.Contains(text, "0 -> 1: 100") {
		t.Errorf("FormatStats output missing content:\n%s", text)
	}
}

func TestGanttRendering(t *testing.T) {
	rec := NewRecorder()
	base := sim.Time(0).Add(time.Hour)
	rec.Event(0, "send", 1, 0, 10, base, base.Add(10*time.Millisecond))
	rec.Event(1, "recv", 0, 0, 10, base.Add(5*time.Millisecond), base.Add(20*time.Millisecond))
	g := rec.Gantt(40)
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("gantt lines = %d:\n%s", len(lines), g)
	}
	if !strings.Contains(lines[1], "#") || !strings.Contains(lines[2], "#") {
		t.Errorf("gantt missing activity bars:\n%s", g)
	}
	// Rank 0's bar starts at the left edge; rank 1's does not.
	r0 := strings.Index(lines[1], "#")
	r1 := strings.Index(lines[2], "#")
	if r0 >= r1 {
		t.Errorf("expected rank 0 activity to start before rank 1:\n%s", g)
	}
}

func TestGanttEmpty(t *testing.T) {
	rec := NewRecorder()
	if g := rec.Gantt(20); !strings.Contains(g, "no events") {
		t.Errorf("empty gantt = %q", g)
	}
}

func TestEventsSorted(t *testing.T) {
	rec := NewRecorder()
	base := sim.Time(0).Add(time.Hour)
	rec.Event(0, "send", 1, 0, 1, base.Add(time.Second), base.Add(2*time.Second))
	rec.Event(1, "send", 0, 0, 1, base, base.Add(time.Second))
	ev := rec.Events()
	if len(ev) != 2 || ev[0].Start >= ev[1].Start {
		t.Error("events not sorted by start time")
	}
	if ev[0].Duration() != time.Second {
		t.Errorf("duration = %v", ev[0].Duration())
	}
}
