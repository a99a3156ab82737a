package sim

import (
	"testing"
	"time"
)

func TestChanFIFO(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, 0)
	var got []int
	k.Go("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, c.Recv(p))
		}
	})
	k.Go("send", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			c.Send(p, i)
			p.Sleep(time.Millisecond)
		}
	})
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("received %v, want [1 2 3]", got)
	}
}

func TestChanRecvBlocksUntilSend(t *testing.T) {
	k := NewKernel()
	c := NewChan[string](k, 0)
	var recvAt Time
	k.Go("recv", func(p *Proc) {
		c.Recv(p)
		recvAt = p.Now()
	})
	k.Go("send", func(p *Proc) {
		p.Sleep(3 * time.Second)
		c.Send(p, "hi")
	})
	k.Run()
	if recvAt != Time(3*time.Second) {
		t.Errorf("Recv completed at %v, want 3s", recvAt)
	}
}

func TestChanBoundedSendBlocks(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, 1)
	var sentSecondAt Time
	k.Go("send", func(p *Proc) {
		c.Send(p, 1) // fills buffer
		c.Send(p, 2) // must wait for the receive at t=5s
		sentSecondAt = p.Now()
	})
	k.Go("recv", func(p *Proc) {
		p.Sleep(5 * time.Second)
		c.Recv(p)
		c.Recv(p)
	})
	k.Run()
	if sentSecondAt != Time(5*time.Second) {
		t.Errorf("second Send completed at %v, want 5s", sentSecondAt)
	}
}

func TestChanTrySendTryRecv(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, 1)
	if _, ok := c.TryRecv(); ok {
		t.Error("TryRecv on empty chan succeeded")
	}
	if !c.TrySend(7) {
		t.Error("TrySend on empty bounded chan failed")
	}
	if c.TrySend(8) {
		t.Error("TrySend on full chan succeeded")
	}
	v, ok := c.TryRecv()
	if !ok || v != 7 {
		t.Errorf("TryRecv = %d,%v want 7,true", v, ok)
	}
	if c.buf.Len() != 0 {
		t.Errorf("Len = %d, want 0", c.buf.Len())
	}
}

// The same-instant handoff must not move any completion time: each
// value sent at t must complete its Recv at exactly t, whether it went
// through the buffer or was handed directly to the parked receiver.
func TestChanHandoffPreservesDeadlines(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, 0)
	var recvAt []Time
	k.Go("recv", func(p *Proc) {
		for i := 0; i < 5; i++ {
			v := c.Recv(p)
			if v != i {
				t.Errorf("received %d, want %d", v, i)
			}
			recvAt = append(recvAt, p.Now())
		}
	})
	k.Go("send", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Second)
			c.Send(p, i) // receiver is parked: direct handoff
		}
	})
	k.Run()
	if len(recvAt) != 5 {
		t.Fatalf("received %d values", len(recvAt))
	}
	for i, at := range recvAt {
		if want := Time(i+1) * Time(time.Second); at != want {
			t.Errorf("value %d received at %v, want %v (handoff changed a deadline)", i, at, want)
		}
	}
	if c.buf.Len() != 0 {
		t.Errorf("Len = %d after drain", c.buf.Len())
	}
}

// A handed-over value must not overtake values already buffered, and a
// buffered value must not overtake a parked receiver's handoff: mixing
// TrySend (event context) with Send keeps global FIFO order.
func TestChanHandoffFIFOWithBufferedValues(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, 0)
	var got []int
	k.Go("recv", func(p *Proc) {
		for i := 0; i < 4; i++ {
			got = append(got, c.Recv(p))
		}
	})
	// At t=1s the receiver is parked: the first TrySend hands off
	// directly, the rest buffer behind it.
	k.At(Time(time.Second), func() {
		for v := 0; v < 3; v++ {
			c.TrySend(v)
		}
	})
	k.Go("send", func(p *Proc) {
		p.Sleep(2 * time.Second)
		c.Send(p, 3)
	})
	k.Run()
	if len(got) != 4 {
		t.Fatalf("received %v", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO broken: got %v", got)
		}
	}
}

// When a receive frees a slot in a full bounded channel, the parked
// sender's value is enqueued on its behalf: the sender completes at the
// receive instant (as before) and its value keeps its FIFO position
// even though the sender never re-ran its admission loop.
func TestChanBoundedHandoffUnblocksSenderInOrder(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, 1)
	var sentThirdAt Time
	k.Go("send", func(p *Proc) {
		c.Send(p, 1) // fills the buffer
		c.Send(p, 2) // parks until the t=5s receive
		c.Send(p, 3) // parks until the t=10s receive
		sentThirdAt = p.Now()
	})
	var got []int
	k.Go("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(5 * time.Second)
			got = append(got, c.Recv(p))
		}
	})
	k.Run()
	if sentThirdAt != Time(10*time.Second) {
		t.Errorf("third Send completed at %v, want 10s", sentThirdAt)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("received %v, want [1 2 3]", got)
	}
}

// A deep buffered backlog must drain in O(1) per receive (the ring
// replaced a head-copying slice); this exercises ring growth and
// wraparound across fill/drain cycles.
func TestChanRingWraparound(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, 0)
	var got []int
	k.Go("worker", func(p *Proc) {
		v := 0
		for cycle := 0; cycle < 5; cycle++ {
			for i := 0; i < 13; i++ { // odd burst size: head walks the ring
				c.Send(p, v)
				v++
			}
			for i := 0; i < 13; i++ {
				got = append(got, c.Recv(p))
			}
		}
	})
	k.Run()
	if len(got) != 65 {
		t.Fatalf("received %d values", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("ring broke FIFO at %d: %d", i, v)
		}
	}
}

func TestChanManyMessagesOrdered(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, 0)
	const n = 1000
	var got []int
	k.Go("recv", func(p *Proc) {
		for i := 0; i < n; i++ {
			got = append(got, c.Recv(p))
		}
	})
	k.Go("send", func(p *Proc) {
		for i := 0; i < n; i++ {
			c.Send(p, i)
		}
	})
	k.Run()
	if len(got) != n {
		t.Fatalf("received %d, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("message %d out of order: %d", i, v)
		}
	}
}
