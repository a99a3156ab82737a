package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
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
		if string(msg.Data) != "async" {
			return fmt.Errorf("got %q", msg.Data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		parts, err := c.Gather(2, []byte{byte(c.Rank())})
		if err != nil {
			return err
		}
		if c.Rank() != 2 {
			if parts != nil {
				return fmt.Errorf("non-root rank %d got %v", c.Rank(), parts)
			}
			return nil
		}
		for r, p := range parts {
			if len(p) != 1 || p[0] != byte(r) {
				return fmt.Errorf("Gather part %d = %v", r, p)
			}
		}
		return nil
	})
	if err != nil {
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
	// One packet (payload, envelope, 40 header bytes): one serialization
	// and one propagation.
	bits, bps := float64(8*(small+envelope+40)), 600e6
	want := time.Duration(bits/bps*1e9) + 500*time.Microsecond
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
	base := runtime.NumGoroutine()
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
	if len(w.parked) != 0 {
		t.Errorf("%d processes parked after Wait", len(w.parked))
	}
	// Every rank's process unwinds: its goroutine exits.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines alive after Wait, %d before the run", runtime.NumGoroutine(), base)
			break
		}
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
	if _, err := BytesToFloat64s(make([]byte, 7)); err == nil {
		t.Error("ragged float64 bytes accepted")
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
		if host := c.world.HostOf(c.self); host != hosts[c.Rank()] {
			return fmt.Errorf("rank %d on %q", c.Rank(), host)
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
