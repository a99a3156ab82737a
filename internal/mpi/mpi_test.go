package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// wan builds juelich <-> staugustin: two hosts joined by one link of the
// given rate and per-direction queue capacity (0: netsim's default).
func wan(bps float64, queueBytes int64) *netsim.Network {
	n := netsim.New(sim.NewKernel())
	n.Connect(n.AddNode("juelich"), n.AddNode("staugustin"),
		netsim.LinkConfig{Bps: bps, Delay: 500 * time.Microsecond, QueueBytes: queueBytes})
	n.ComputeRoutes()
	return n
}

func TestPingPong(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			if err := c.Send(1, 5, []byte("ping")); err != nil {
				return err
			}
			msg, err := c.Recv(1, 5)
			if err != nil {
				return err
			}
			if string(msg.Data) != "pong" || msg.Source != 1 {
				return fmt.Errorf("got %q from %d", msg.Data, msg.Source)
			}
		case 1:
			msg, err := c.Recv(0, 5)
			if err != nil {
				return err
			}
			if string(msg.Data) != "ping" {
				return fmt.Errorf("got %q", msg.Data)
			}
			return c.Send(0, 5, []byte("pong"))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatching(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			// Send tags out of order; receiver picks by tag.
			c.Send(1, 7, []byte("seven"))
			c.Send(1, 3, []byte("three"))
			return nil
		}
		m3, err := c.Recv(0, 3)
		if err != nil {
			return err
		}
		m7, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if string(m3.Data) != "three" || string(m7.Data) != "seven" {
			return fmt.Errorf("tag matching broken: %q %q", m3.Data, m7.Data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 0 {
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				msg, err := c.Recv(AnySource, AnyTag)
				if err != nil {
					return err
				}
				seen[msg.Source] = true
			}
			if !seen[1] || !seen[2] {
				return fmt.Errorf("wildcard recv missed a source: %v", seen)
			}
			return nil
		}
		return c.Send(0, c.Rank(), []byte{byte(c.Rank())})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNegativeTagRejected(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, -3, nil); err == nil {
				return fmt.Errorf("negative tag accepted")
			}
			// Unblock rank 1.
			return c.Send(1, 0, nil)
		}
		_, err := c.Recv(0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvNoDeadlock(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		peer := 1 - c.Rank()
		data := []byte{byte(c.Rank())}
		msg, err := c.Sendrecv(peer, 1, data, peer, 1)
		if err != nil {
			return err
		}
		if msg.Data[0] != byte(peer) {
			return fmt.Errorf("exchanged wrong data")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendIrecvWaitTest(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			req := c.Isend(1, 2, []byte("async"))
			_, err := req.Wait()
			return err
		}
		req := c.Irecv(0, 2)
		msg, err := req.Wait()
		if err != nil {
			return err
		}
		if !req.Test() {
			return fmt.Errorf("Test false after Wait")
		}
		if string(msg.Data) != "async" {
			return fmt.Errorf("got %q", msg.Data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOrdering(t *testing.T) {
	// No lock: ranks hand the one virtual CPU to each other, which is
	// what -race checks here.
	var phase1, phase2 int
	err := Run(8, func(c *Comm) error {
		phase1++
		if err := c.Barrier(); err != nil {
			return err
		}
		if phase1 != 8 {
			return fmt.Errorf("rank %d passed barrier with only %d arrivals", c.Rank(), phase1)
		}
		phase2++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if phase2 != 8 {
		t.Fatalf("phase2 = %d", phase2)
	}
}

func TestBcastAllSizesAndRoots(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8} {
		for root := 0; root < n; root += 2 {
			payload := []byte(fmt.Sprintf("bcast-%d-%d", n, root))
			err := Run(n, func(c *Comm) error {
				var data []byte
				if c.Rank() == root {
					data = payload
				}
				got, err := c.Bcast(root, data)
				if err != nil {
					return err
				}
				if string(got) != string(payload) {
					return fmt.Errorf("rank %d/%d root %d got %q", c.Rank(), n, root, got)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d root=%d: %v", n, root, err)
			}
		}
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		err := Run(n, func(c *Comm) error {
			vec := []float64{float64(c.Rank() + 1), 1}
			sum, err := c.Reduce(0, OpSum, vec)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				want := float64(n*(n+1)) / 2
				if sum[0] != want || sum[1] != float64(n) {
					return fmt.Errorf("Reduce = %v, want [%v %v]", sum, want, n)
				}
			} else if sum != nil {
				return fmt.Errorf("non-root got %v", sum)
			}
			all, err := c.Allreduce(OpMax, []float64{float64(c.Rank())})
			if err != nil {
				return err
			}
			if all[0] != float64(n-1) {
				return fmt.Errorf("Allreduce max = %v, want %d", all[0], n-1)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestReduceOps(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		v := float64(c.Rank() + 1) // 1..4
		min, err := c.Allreduce(OpMin, []float64{v})
		if err != nil {
			return err
		}
		prod, err := c.Allreduce(OpProd, []float64{v})
		if err != nil {
			return err
		}
		if min[0] != 1 || prod[0] != 24 {
			return fmt.Errorf("min=%v prod=%v", min[0], prod[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherScatterAllgatherAlltoall(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		// Gather.
		parts, err := c.Gather(2, []byte{byte(c.Rank())})
		if err != nil {
			return err
		}
		if c.Rank() == 2 {
			for r, p := range parts {
				if len(p) != 1 || p[0] != byte(r) {
					return fmt.Errorf("Gather part %d = %v", r, p)
				}
			}
		}
		// Scatter.
		var toScatter [][]byte
		if c.Rank() == 1 {
			toScatter = [][]byte{{10}, {11}, {12}, {13}}
		}
		mine, err := c.Scatter(1, toScatter)
		if err != nil {
			return err
		}
		if len(mine) != 1 || mine[0] != byte(10+c.Rank()) {
			return fmt.Errorf("Scatter got %v", mine)
		}
		// Allgather.
		all, err := c.Allgather([]byte{byte(100 + c.Rank())})
		if err != nil {
			return err
		}
		for r, p := range all {
			if len(p) != 1 || p[0] != byte(100+r) {
				return fmt.Errorf("Allgather part %d = %v", r, p)
			}
		}
		// Alltoall.
		out := make([][]byte, 4)
		for r := range out {
			out[r] = []byte{byte(10*c.Rank() + r)}
		}
		in, err := c.Alltoall(out)
		if err != nil {
			return err
		}
		for r, p := range in {
			if len(p) != 1 || p[0] != byte(10*r+c.Rank()) {
				return fmt.Errorf("Alltoall from %d = %v", r, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScanPrefix(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		err := Run(n, func(c *Comm) error {
			got, err := c.Scan(OpSum, []float64{float64(c.Rank() + 1)})
			if err != nil {
				return err
			}
			r := c.Rank() + 1
			want := float64(r*(r+1)) / 2
			if got[0] != want {
				return fmt.Errorf("rank %d prefix sum = %v, want %v", c.Rank(), got[0], want)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestReduceScatter(t *testing.T) {
	const n = 4
	err := Run(n, func(c *Comm) error {
		// Rank r contributes block b = [r*10 + b] for destination b.
		blocks := make([][]float64, n)
		for b := range blocks {
			blocks[b] = []float64{float64(10*c.Rank() + b)}
		}
		got, err := c.ReduceScatter(OpSum, blocks)
		if err != nil {
			return err
		}
		// Destination d receives sum over r of (10r + d) = 60 + 4d.
		want := float64(60 + 4*c.Rank())
		if len(got) != 1 || got[0] != want {
			return fmt.Errorf("rank %d got %v, want %v", c.Rank(), got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceScatterValidation(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if _, err := c.ReduceScatter(OpSum, [][]float64{{1}}); err == nil {
			return fmt.Errorf("wrong block count accepted")
		}
		// Both ranks must still converge: run a correct call after.
		blocks := [][]float64{{1}, {2}}
		_, err := c.ReduceScatter(OpSum, blocks)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplit(t *testing.T) {
	err := Run(6, func(c *Comm) error {
		color := c.Rank() % 2
		sub, err := c.Split(color, c.Rank())
		if err != nil {
			return err
		}
		if sub.Size() != 3 {
			return fmt.Errorf("sub size = %d", sub.Size())
		}
		// Sum the original ranks within the subgroup: evens 0+2+4=6,
		// odds 1+3+5=9.
		sum, err := sub.Allreduce(OpSum, []float64{float64(c.Rank())})
		if err != nil {
			return err
		}
		want := 6.0
		if color == 1 {
			want = 9.0
		}
		if sum[0] != want {
			return fmt.Errorf("subgroup sum = %v, want %v", sum[0], want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitOptOut(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		color := 0
		if c.Rank() == 3 {
			color = -1
		}
		sub, err := c.Split(color, 0)
		if err != nil {
			return err
		}
		if c.Rank() == 3 {
			if sub != nil {
				return fmt.Errorf("opt-out rank got a communicator")
			}
			return nil
		}
		if sub.Size() != 3 {
			return fmt.Errorf("sub size = %d", sub.Size())
		}
		return sub.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDupIsolatesTraffic(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		dup, err := c.Dup()
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			// Same tag on both communicators; receiver must get the
			// right payload from each.
			if err := c.Send(1, 9, []byte("orig")); err != nil {
				return err
			}
			return dup.Send(1, 9, []byte("dup"))
		}
		md, err := dup.Recv(0, 9)
		if err != nil {
			return err
		}
		mo, err := c.Recv(0, 9)
		if err != nil {
			return err
		}
		if string(md.Data) != "dup" || string(mo.Data) != "orig" {
			return fmt.Errorf("dup isolation broken: %q %q", md.Data, mo.Data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSpawnIntercomm(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		ic, err := c.Spawn([]string{"viz", "viz"}, func(child *Comm, parent *Intercomm) error {
			// Children compute rank sums and report to the parent.
			sum, err := child.Allreduce(OpSum, []float64{float64(child.Rank() + 1)})
			if err != nil {
				return err
			}
			if child.Rank() == 0 {
				return parent.Send(0, 1, Float64sToBytes(sum))
			}
			return nil
		})
		if err != nil {
			return err
		}
		if ic.RemoteSize() != 2 || ic.LocalSize() != 1 {
			return fmt.Errorf("intercomm sizes %d/%d", ic.LocalSize(), ic.RemoteSize())
		}
		msg, err := ic.Recv(0, 1)
		if err != nil {
			return err
		}
		v, err := BytesToFloat64s(msg.Data)
		if err != nil {
			return err
		}
		if v[0] != 3 {
			return fmt.Errorf("children sum = %v, want 3", v[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConnectAccept(t *testing.T) {
	w := NewWorld(nil, nil)
	// Server application.
	_, err := w.Launch([]string{"t3e"}, func(c *Comm) error {
		if err := c.OpenPort("fire-viz"); err != nil {
			return err
		}
		ic, err := c.Accept("fire-viz")
		if err != nil {
			return err
		}
		msg, err := ic.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(msg.Data) != "attach" {
			return fmt.Errorf("server got %q", msg.Data)
		}
		return ic.Send(0, 2, []byte("welcome"))
	})
	if err != nil {
		t.Fatal(err)
	}
	// Independently launched client (e.g. a visualization front-end).
	// Launched second, it runs second: the port is open by then.
	_, err = w.Launch([]string{"onyx2"}, func(c *Comm) error {
		ic, err := c.Connect("fire-viz")
		if err != nil {
			return err
		}
		if err := ic.Send(0, 1, []byte("attach")); err != nil {
			return err
		}
		msg, err := ic.Recv(0, 2)
		if err != nil {
			return err
		}
		if string(msg.Data) != "welcome" {
			return fmt.Errorf("client got %q", msg.Data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestWANSlowsInterHostOnly states the two-level cost structure in
// exact virtual time: nothing inside a host, the network's own path
// delay between hosts.
func TestWANSlowsInterHostOnly(t *testing.T) {
	hosts := []string{"juelich", "juelich", "staugustin"}
	const small, large = 1000, 200000 // one packet, four packets
	// timed returns how long rank 0's sends to ranks 1 (same host) and
	// 2 (cross host) block on a link of the given rate.
	timed := func(net *netsim.Network, bytes int) (intra, inter time.Duration) {
		_, err := RunHosts(net, hosts, nil, func(c *Comm) error {
			if c.Rank() != 0 {
				_, err := c.Recv(0, 1)
				return err
			}
			start := c.world.k.Now()
			if err := c.Send(1, 1, make([]byte, bytes)); err != nil {
				return err
			}
			sent := c.world.k.Now()
			if err := c.Send(2, 1, make([]byte, bytes)); err != nil {
				return err
			}
			intra, inter = sent.Sub(start), c.world.k.Now().Sub(sent)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return intra, inter
	}
	net := wan(600e6, 0)
	intra, onePacket := timed(net, small)
	want, err := net.PathDelay(0, 1, small+envelope+40)
	if err != nil {
		t.Fatal(err)
	}
	if intra != 0 || onePacket != want {
		t.Errorf("1000 B: same host %v (want 0), cross host %v (want the path delay %v)", intra, onePacket, want)
	}
	intra, fourPackets := timed(wan(600e6, 0), large)
	if intra != 0 || fourPackets <= onePacket {
		t.Errorf("200 KB: same host %v (want 0), cross host %v (want more than one packet's %v)", intra, fourPackets, onePacket)
	}
	if _, faster := timed(wan(2400e6, 0), large); faster >= fourPackets {
		t.Errorf("200 KB on a 4x faster link took %v, not less than %v", faster, fourPackets)
	}
}

// deadlocked runs a two-rank world in which rank 0 blocks in block
// forever and rank 1 returns peerErr, and returns what Wait and the
// blocked call reported. Nothing may stay parked afterwards.
func deadlocked(t *testing.T, net *netsim.Network, peerErr error, block func(c *Comm) error) (waitErr, callErr error) {
	t.Helper()
	w := NewWorld(net, nil)
	_, err := w.Launch([]string{"juelich", "staugustin"}, func(c *Comm) error {
		if c.Rank() == 1 {
			return peerErr
		}
		callErr = block(c)
		return callErr
	})
	if err != nil {
		t.Fatal(err)
	}
	_, waitErr = w.Wait()
	if callErr == nil || !strings.Contains(callErr.Error(), "deadlock") {
		t.Errorf("blocked call returned %v, want the deadlock error", callErr)
	}
	if n := w.k.Procs(); n != 0 || len(w.parked) != 0 {
		t.Errorf("%d processes alive and %d parked after Wait", n, len(w.parked))
	}
	return waitErr, callErr
}

func TestUnansweredRecvIsADeadlockError(t *testing.T) {
	waitErr, callErr := deadlocked(t, nil, nil, func(c *Comm) error {
		_, err := c.Recv(1, 5)
		return err
	})
	if waitErr != callErr {
		t.Errorf("Wait returned %v, the blocked Recv %v", waitErr, callErr)
	}
	for _, want := range []string{"rank 0 on juelich in recv", "peer 1, tag 5"} {
		if !strings.Contains(waitErr.Error(), want) {
			t.Errorf("deadlock error %q does not name %q", waitErr, want)
		}
	}
}

func TestEarlierRankErrorWinsOverDeadlock(t *testing.T) {
	gaveUp := errors.New("rank 1 gave up")
	waitErr, _ := deadlocked(t, wan(600e6, 0), gaveUp, func(c *Comm) error {
		_, err := c.Sendrecv(1, 1, nil, 1, 1)
		return err
	})
	if waitErr != gaveUp {
		t.Errorf("Wait returned %v, want the error rank 1 returned before the deadlock", waitErr)
	}
}

func TestLostTrainPacketIsADeadlockError(t *testing.T) {
	// A queue that holds one packet: of the four sent back to back the
	// first is on the wire, the second queued, the rest dropped — and the
	// last one is what completes a train.
	waitErr, _ := deadlocked(t, wan(600e6, 65536), nil, func(c *Comm) error {
		return c.Send(1, 7, make([]byte, 200000))
	})
	if want := "rank 0 on juelich in send(ctx 1, peer 1, tag 7)"; !strings.Contains(waitErr.Error(), want) {
		t.Errorf("deadlock error %q does not name %q", waitErr, want)
	}
}

func TestFloatConversions(t *testing.T) {
	v64 := []float64{1.5, -2.25, 3e10}
	got64, err := BytesToFloat64s(Float64sToBytes(v64))
	if err != nil {
		t.Fatal(err)
	}
	for i := range v64 {
		if got64[i] != v64[i] {
			t.Fatalf("float64 roundtrip[%d]", i)
		}
	}
	v32 := []float32{0.5, -7, 1e10}
	got32, err := BytesToFloat32s(Float32sToBytes(v32))
	if err != nil {
		t.Fatal(err)
	}
	for i := range v32 {
		if got32[i] != v32[i] {
			t.Fatalf("float32 roundtrip[%d]", i)
		}
	}
	if _, err := BytesToFloat64s(make([]byte, 7)); err == nil {
		t.Error("ragged float64 bytes accepted")
	}
	if _, err := BytesToFloat32s(make([]byte, 5)); err == nil {
		t.Error("ragged float32 bytes accepted")
	}
}

// TestFloat64sMessages: SendFloat64s sends its parts as one message
// that no longer depends on them once the call returns, and
// RecvFloat64s decodes into the caller's array when it is long enough.
// Send copies too: its caller may reuse the buffer at once.
func TestFloat64sMessages(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			a, b := []float64{1, 2}, []float64{3}
			if err := c.SendFloat64s(1, 1, a, b); err != nil {
				return err
			}
			a[0], b[0] = -1, -3
			raw := []byte{9}
			if err := c.Send(1, 2, raw); err != nil {
				return err
			}
			raw[0] = 0
			return c.SendFloat64s(1, 3, []float64{4, 5, 6, 7})
		}
		buf := make([]float64, 3)
		got, err := c.RecvFloat64s(buf, 0, 1)
		if err != nil {
			return err
		}
		if !slices.Equal(got, []float64{1, 2, 3}) || &got[0] != &buf[0] {
			return fmt.Errorf("parts arrived as %v (into the caller's array: %v)", got, &got[0] == &buf[0])
		}
		if msg, err := c.Recv(0, 2); err != nil || !bytes.Equal(msg.Data, []byte{9}) {
			return fmt.Errorf("Send delivered %v, %v", msg.Data, err)
		}
		got, err = c.RecvFloat64s(got, 0, 3)
		if err != nil {
			return err
		}
		if !slices.Equal(got, []float64{4, 5, 6, 7}) || &got[0] == &buf[0] {
			return fmt.Errorf("a message longer than dst arrived as %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProbeAndIprobe(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			// Nothing pending yet.
			if _, ok, err := c.Iprobe(1, 5); err != nil || ok {
				return fmt.Errorf("Iprobe on empty box: ok=%v err=%v", ok, err)
			}
			// Tell rank 1 to send, then probe for the payload.
			if err := c.Send(1, 1, nil); err != nil {
				return err
			}
			st, err := c.Probe(1, 5)
			if err != nil {
				return err
			}
			if st.Source != 1 || st.Tag != 5 || st.Bytes != 300 {
				return fmt.Errorf("probe status %+v", st)
			}
			// Probe must not consume: the receive still works.
			msg, err := c.Recv(1, 5)
			if err != nil {
				return err
			}
			if len(msg.Data) != 300 {
				return fmt.Errorf("recv after probe got %d bytes", len(msg.Data))
			}
			// Iprobe sees an empty box again.
			if _, ok, _ := c.Iprobe(1, 5); ok {
				return fmt.Errorf("message not consumed by Recv")
			}
			return nil
		}
		if _, err := c.Recv(0, 1); err != nil {
			return err
		}
		return c.Send(0, 5, make([]byte, 300))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProbeValidation(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		if _, err := c.Probe(5, 0); err == nil {
			return fmt.Errorf("out-of-range probe src accepted")
		}
		if _, _, err := c.Iprobe(-4, 0); err == nil {
			return fmt.Errorf("out-of-range iprobe src accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRankValidation(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		if err := c.Send(5, 0, nil); err == nil {
			return fmt.Errorf("out-of-range dst accepted")
		}
		if _, err := c.Recv(-2, 0); err == nil {
			return fmt.Errorf("out-of-range src accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrorsPropagate(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 1 {
			return fmt.Errorf("rank 1 failed")
		}
		return nil
	})
	if err == nil || err.Error() != "rank 1 failed" {
		t.Fatalf("err = %v", err)
	}
}

func TestHostPlacement(t *testing.T) {
	hosts := []string{"cray-t3e", "ibm-sp2"}
	_, err := RunHosts(nil, hosts, nil, func(c *Comm) error {
		if c.Host() != hosts[c.Rank()] {
			return fmt.Errorf("rank %d on %q", c.Rank(), c.Host())
		}
		if c.HostOfRank(1) != "ibm-sp2" {
			return fmt.Errorf("HostOfRank wrong")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunHosts(nil, nil, nil, func(*Comm) error { return nil }); err == nil {
		t.Error("empty host list accepted")
	}
	if _, err := RunHosts(wan(600e6, 0), hosts, nil, func(*Comm) error { return nil }); err == nil {
		t.Error("hosts that are no nodes of the network accepted")
	}
}
