package netsim

import (
	"math/rand"
	"testing"
	"time"
)

// NewRand with the default zero network seed must be byte-identical to
// the historical per-generator construction rand.New(rand.NewSource(s)):
// CrossTraffic gap sequences — and therefore every injection time and
// every report built on top of them — are a pure function of these
// draws. The literals pin the math/rand Source sequence itself, which
// the Go 1 compatibility promise keeps stable, so any change to the
// seed derivation fails against absolute values, not just against a
// second implementation of the same mistake.
func TestNewRandMatchesHistoricalSeeding(t *testing.T) {
	n := New(nil)
	want := []float64{
		0.91889215925276346,
		0.23150717404875204,
		0.24138756706529774,
		0.91156217437181741,
	}
	r := n.NewRand(7) // CrossTraffic{Seed: 0} historically drew from NewSource(0+7)
	for i, w := range want {
		if got := r.Float64(); got != w {
			t.Fatalf("NewRand(7) draw %d = %.17g, want %.17g (historical NewSource(7) sequence)", i, got, w)
		}
	}

	// And for arbitrary streams, equality with the legacy construction.
	for _, stream := range []int64{0, 1, 42, -3} {
		a, b := n.NewRand(stream), rand.New(rand.NewSource(stream))
		for i := 0; i < 16; i++ {
			if x, y := a.Float64(), b.Float64(); x != y {
				t.Fatalf("stream %d draw %d: NewRand=%g legacy=%g", stream, i, x, y)
			}
		}
	}
}

// SetSeed shifts every derived stream, and the same seed reproduces
// the same full simulation — packet for packet.
func TestSetSeedReproducesTraffic(t *testing.T) {
	run := func(seed int64) (sent, delivered, dropped int64) {
		n, a, b := twoHosts(LinkConfig{Bps: 1e9, Delay: time.Millisecond, MTU: 9180, QueueBytes: 64 << 10})
		n.SetSeed(seed)
		ct := &CrossTraffic{Net: n, Src: a.ID, Dst: b.ID, Bps: 200e6, Seed: 5}
		ct.Start(50 * time.Millisecond)
		n.K.Run()
		return ct.Stats()
	}
	s1, d1, p1 := run(11)
	s2, d2, p2 := run(11)
	if s1 != s2 || d1 != d2 || p1 != p2 {
		t.Errorf("same network seed diverged: %d/%d/%d vs %d/%d/%d", s1, d1, p1, s2, d2, p2)
	}
	if s1 == 0 {
		t.Fatal("seeded run sent nothing; test topology broken")
	}
	s3, _, _ := run(12)
	if s3 == s1 {
		t.Logf("different seeds produced equal sent counts (%d); gap sequences may still differ", s1)
	}
}

// SetSeed sets the network's base random seed. Every stochastic
// component hanging off the network derives its generator through
// NewRand, so one seed here reproduces a whole simulation.
func (n *Network) SetSeed(seed int64) { n.seed = seed }
