package mri

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The scanner's noise must be the stream math/rand gives the same seed:
// every draw, bit for bit, however it is cut into fills, skips and
// single draws.

// Paths a draw's first value takes through the ziggurat.
const (
	pathRectangle = iota
	pathWedge
	pathTail
)

// path says which way the next draw's first value goes: the rectangle
// test, a wedge (which may reject and draw again) or the base strip's
// tail.
func (g *noiseSource) path() int {
	if g.pos == ringLen {
		g.refill()
	}
	j := int32(uint32(g.ring[g.pos] >> 31))
	switch i := j & 0x7F; {
	case absInt32(j) < kn[i]:
		return pathRectangle
	case i == 0:
		return pathTail
	}
	return pathWedge
}

// noiseOp is one request to the generator: n > 0 fills n draws, n < 0
// skips -n, n == 0 takes one draw from norm.
type noiseOp int

// noiseChecker drives a noiseSource and a math/rand stream of the same
// seed side by side.
type noiseChecker struct {
	g     noiseSource
	want  *rand.Rand
	buf   []float64
	draws int
	// wraps counts fills and skips that start inside the ring and read
	// across a refill, the boundary their wrap-free runs stop at.
	fillWraps, skipWraps int
}

func newNoiseChecker(seed int64) *noiseChecker {
	c := &noiseChecker{want: rand.New(rand.NewSource(seed))}
	c.g.seed(seed)
	return c
}

// do runs op on both generators and reports the first draw that differs.
func (c *noiseChecker) do(t *testing.T, op noiseOp) {
	n, before := int(op), c.g.pos
	switch {
	case n == 0:
		c.check(t, c.g.norm())
		return
	case n < 0:
		c.g.skip(-n)
		for k := 0; k < -n; k++ {
			c.want.NormFloat64()
		}
		c.draws -= n
		if before < ringLen && (c.g.pos < before || -n > ringLen-before) {
			c.skipWraps++
		}
		return
	}
	if cap(c.buf) < n {
		c.buf = make([]float64, n)
	}
	dst := c.buf[:n]
	c.g.fill(dst)
	if before < ringLen && (c.g.pos < before || n > ringLen-before) {
		c.fillWraps++
	}
	for _, x := range dst {
		c.check(t, x)
	}
}

func (c *noiseChecker) check(t *testing.T, got float64) {
	if want := c.want.NormFloat64(); math.Float64bits(got) != math.Float64bits(want) {
		t.Helper()
		t.Fatalf("draw %d: %v (%#x), math/rand %v (%#x)", c.draws, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	c.draws++
}

func TestNoiseMatchesMathRand(t *testing.T) {
	// Lengths around the ring's 607 values and its 273-value lag, a
	// scanner chunk, and one that is none of these.
	lengths := []int{1, 2, 272, 273, 274, 333, 334, 606, 607, 608, 1213, 1214, 4096, 5003}
	const draws = 3_000_000
	for _, seed := range []int64{0, 1, -7, 1 << 40, 8, 43} {
		// One draw at a time, noting where each starts.
		single := newNoiseChecker(seed)
		var paths [3]int
		for single.draws < draws {
			paths[single.g.path()]++
			single.do(t, 0)
		}
		if paths[pathWedge] == 0 || paths[pathTail] == 0 {
			t.Errorf("seed %d: %d draws reached a wedge, %d the tail; both slow paths must be checked",
				seed, paths[pathWedge], paths[pathTail])
		}
		// Fills and skips of every length, each followed by a single
		// draw, so skips are checked by what comes after them.
		c := newNoiseChecker(seed)
		for k := 0; c.draws < draws; k++ {
			n := lengths[k%len(lengths)]
			if k/len(lengths)%2 == 1 {
				n = -n
			}
			c.do(t, noiseOp(n))
			c.do(t, 0)
		}
		if c.fillWraps == 0 || c.skipWraps == 0 {
			t.Errorf("seed %d: %d fills and %d skips read across a refill; both must", seed, c.fillWraps, c.skipWraps)
		}
	}
}

// FuzzNoiseMatchesMathRand decodes ops into a sequence of fills, skips
// and single draws (two bytes each: the low 15 bits are a length, the
// top bit picks a skip; length 0 is a single draw) and checks every draw
// against math/rand, and the draws after the last op.
func FuzzNoiseMatchesMathRand(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		c, total := newNoiseChecker(seed), 0
		for ; len(ops) >= 2 && total < 1<<20; ops = ops[2:] {
			v := binary.LittleEndian.Uint16(ops)
			n := int(v & 0x7FFF)
			total += n
			if v&0x8000 != 0 {
				n = -n
			}
			c.do(t, noiseOp(n))
		}
		c.do(t, 0)
		c.do(t, ringLen+1)
	})
}

// Every strip's squeeze must sit below the curve by its margin and above
// it, over the whole wedge and at both ends, and together the strips
// must decide nearly every wedge test without math.Exp.
func TestSqueezeBoundsTheCurve(t *testing.T) {
	var g noiseSource
	g.seed(1)
	const steps = 4096
	var decided, tests float64
	for i := int32(1); i < 128; i++ {
		sq := g.squeeze[i]
		a, b := float64(kn[i])*float64(wn[i]), (1<<31)*float64(wn[i])
		weight := 1 - float64(kn[i])/(1<<31) // the share of strip i's draws that reach its wedge
		for k := 0; k <= steps; k++ {
			x := a + (b-a)*float64(k)/steps
			if k == steps {
				x = b
			}
			s, e := .5*x*x, math.Exp(-.5*x*x)
			lo, hi := sq.loA+sq.loB*s, sq.hiA+sq.hiB*s
			if lo > e*(1-1.0/(1<<21)) || hi < e {
				t.Fatalf("strip %d at |x| = %v: squeeze [%v, %v] does not hold exp %v clear", i, x, lo, hi, e)
			}
			// The share of heights y between fn[i] and fn[i-1] the
			// bounds decide at this x.
			bottom, top := float64(fn[i]), float64(fn[i-1])
			open := min(max(hi, bottom), top) - min(max(lo, bottom), top)
			decided += weight * (1 - open/(top-bottom))
			tests += weight
		}
	}
	if share := decided / tests; share < 0.98 {
		t.Errorf("the squeeze decides %.1f %% of wedge tests, want at least 98 %%", 100*share)
	} else {
		t.Logf("the squeeze decides %.2f %% of wedge tests", 100*share)
	}
}
