package sim

import (
	"testing"
	"time"
)

// Procs reports the number of live processes (started and not yet
// returned).
func (k *Kernel) Procs() int { return k.procs }

func TestProcSleep(t *testing.T) {
	k := NewKernel()
	var wake Time
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(2 * time.Second)
		wake = p.Now()
	})
	k.Run()
	if wake != Time(2*time.Second) {
		t.Errorf("woke at %v, want 2s", wake)
	}
	if k.Procs() != 0 {
		t.Errorf("%d live procs after Run", k.Procs())
	}
}

func TestProcInterleaving(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Go("a", func(p *Proc) {
		p.Sleep(time.Second)
		order = append(order, "a1")
		p.Sleep(2 * time.Second) // wakes at 3s
		order = append(order, "a3")
	})
	k.Go("b", func(p *Proc) {
		p.Sleep(2 * time.Second)
		order = append(order, "b2")
	})
	k.Run()
	want := []string{"a1", "b2", "a3"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcPanicPropagates(t *testing.T) {
	k := NewKernel()
	k.Go("boom", func(p *Proc) {
		p.Sleep(time.Second)
		panic("kaboom")
	})
	defer func() {
		if recover() == nil {
			t.Error("process panic did not propagate out of Run")
		}
	}()
	k.Run()
}

func TestProcZeroSleepYields(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Go("x", func(p *Proc) {
		order = append(order, 1)
		p.Sleep(0)
		order = append(order, 3)
	})
	k.Go("y", func(p *Proc) {
		order = append(order, 2)
	})
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
}

func TestManyProcs(t *testing.T) {
	k := NewKernel()
	total := 0
	for i := 0; i < 200; i++ {
		i := i
		k.Go("p", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond)
			total++
		})
	}
	k.Run()
	if total != 200 {
		t.Errorf("%d procs completed, want 200", total)
	}
}
