package netsim

import (
	"math/rand"
	"testing"
)

// NewRand must be byte-identical to
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
