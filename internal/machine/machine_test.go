package machine

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestSpecsSanity(t *testing.T) {
	specs := []Spec{CrayT3E600(), CrayT3E1200(), CrayT90(), IBMSP2(), SGIOnyx2()}
	for _, s := range specs {
		if s.Name == "" || s.PEs <= 0 || s.SustainedFlops <= 0 || s.NetBps <= 0 {
			t.Errorf("spec %+v incomplete", s)
		}
	}
	// The T3E-1200 is twice the T3E-600 per PE.
	if CrayT3E1200().SustainedFlops != 2*CrayT3E600().SustainedFlops {
		t.Error("T3E-1200 should double the T3E-600 per-PE rate")
	}
	// The SP2's I/O cap matches the ~260 Mbit/s observation.
	if io := IBMSP2().IOBps; io < 255e6 || io > 275e6 {
		t.Errorf("SP2 IOBps = %v", io)
	}
}

func TestComputeTimeScaling(t *testing.T) {
	s := CrayT3E600()
	t1 := s.ComputeTime(4.3e9, 1) // 100 s at 43 Mflop/s
	if d := t1.Seconds(); d < 99 || d > 101 {
		t.Errorf("1-PE time = %v", d)
	}
	t100 := s.ComputeTime(4.3e9, 100)
	if d := t100.Seconds(); d < 0.99 || d > 1.01 {
		t.Errorf("100-PE time = %v", d)
	}
	// PEs capped at machine size.
	tBig := s.ComputeTime(4.3e9, 10000)
	if tBig != s.ComputeTime(4.3e9, s.PEs) {
		t.Error("PE count not capped at machine size")
	}
	// p < 1 clamps to 1.
	if s.ComputeTime(4.3e9, 0) != t1 {
		t.Error("p=0 not clamped")
	}
}

func TestCollectiveTime(t *testing.T) {
	s := CrayT3E600()
	if s.CollectiveTime(1024, 1) != 0 {
		t.Error("1-PE collective should be free")
	}
	c2 := s.CollectiveTime(1024, 2)
	c256 := s.CollectiveTime(1024, 256)
	diff := c256 - 8*c2
	if diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("256-PE collective = %v, want ~8 x %v (log2 stages)", c256, c2)
	}
}

func TestExchangeTime(t *testing.T) {
	s := CrayT3E600()
	d := s.ExchangeTime(64 * 64 * 4) // one 64x64 float32 halo slice
	if d <= s.NetLatency {
		t.Error("exchange should cost more than latency alone")
	}
	if d > time.Millisecond {
		t.Errorf("halo exchange = %v, implausibly slow for a T3E", d)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{MPP: "MPP", Vector: "vector", SMP: "SMP", Workstation: "workstation"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q", int(k), k.String())
		}
	}
	if !strings.HasPrefix(Kind(99).String(), "kind(") {
		t.Error("unknown kind should format numerically")
	}
}

// CollectiveTime reports the modeled cost of a tree collective (e.g.
// broadcast or reduce) of the given payload over p PEs: log2(p) stages
// of latency + serialization.
func (s Spec) CollectiveTime(bytes, p int) time.Duration {
	if p <= 1 {
		return 0
	}
	stages := math.Ceil(math.Log2(float64(p)))
	per := float64(s.NetLatency) + float64(bytes)*8/s.NetBps*1e9
	return time.Duration(stages * per)
}

// ExchangeTime reports the modeled cost of a neighbor (halo) exchange
// of the given payload per PE pair.
func (s Spec) ExchangeTime(bytes int) time.Duration {
	return s.NetLatency + time.Duration(float64(bytes)*8/s.NetBps*1e9)
}
