package mri

import (
	"math"
	"testing"
)

// foldHeadPlanes projects the head the way figure 4 did before
// HeadProjection: every plane of HeadPlanes folded into a per-pixel
// peak that starts at +0 and a range seeded from the first voxel.
func foldHeadPlanes(nx, ny, nz int) (peak []float32, lo, hi float32) {
	head, plane := HeadPlanes(nx, ny, nz), make([]float32, nx*ny)
	peak = make([]float32, nx*ny)
	for z := 0; z < nz; z++ {
		head(z, plane, nil)
		if z == 0 {
			lo, hi = plane[0], plane[0]
		}
		for p, v := range plane {
			if v > peak[p] {
				peak[p] = v
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return peak, lo, hi
}

// requireProjectionEqualsFold fails unless HeadProjection's peaks and
// range have every bit of the plane fold's.
func requireProjectionEqualsFold(t *testing.T, nx, ny, nz int) {
	t.Helper()
	peak, lo, hi := HeadProjection(nx, ny, nz)
	wantPeak, wantLo, wantHi := foldHeadPlanes(nx, ny, nz)
	if math.Float32bits(lo) != math.Float32bits(wantLo) || math.Float32bits(hi) != math.Float32bits(wantHi) {
		t.Fatalf("%dx%dx%d: range [%v, %v], plane fold [%v, %v]", nx, ny, nz, lo, hi, wantLo, wantHi)
	}
	if len(peak) != len(wantPeak) {
		t.Fatalf("%dx%dx%d: %d peaks, plane fold %d", nx, ny, nz, len(peak), len(wantPeak))
	}
	for p := range wantPeak {
		if math.Float32bits(peak[p]) != math.Float32bits(wantPeak[p]) {
			t.Fatalf("%dx%dx%d: pixel (%d, %d) peak %v, plane fold %v", nx, ny, nz, p%nx, p/nx, peak[p], wantPeak[p])
		}
	}
}

func TestHeadProjectionEqualsPlaneFoldBitForBit(t *testing.T) {
	// Figure 4's head, the scanner's, heads that are all brain (1x1x1,
	// 2x2x2), and odd shapes whose columns end in brain, shell or air.
	for _, d := range [][3]int{{256, 256, 128}, {64, 64, 16}, {1, 1, 1}, {2, 2, 2}, {3, 5, 7}, {17, 9, 1}, {33, 31, 29}, {10, 40, 61}} {
		requireProjectionEqualsFold(t, d[0], d[1], d[2])
	}
}

// Projections must reach every branch of a column: a brain, shell or
// air peak, and a brain, shell or air minimum (1x1x5 is the head with
// shell but no air).
func TestHeadProjectionShapesReachEveryColumnKind(t *testing.T) {
	var peaks, lows [3]bool // brain, shell, air
	kind := func(v float32) int {
		switch {
		case v > shell:
			return 0
		case v == shell:
			return 1
		}
		return 2
	}
	for _, d := range [][3]int{{256, 256, 128}, {1, 1, 1}, {1, 1, 5}, {3, 5, 7}} {
		requireProjectionEqualsFold(t, d[0], d[1], d[2])
		peak, lo, _ := HeadProjection(d[0], d[1], d[2])
		for _, v := range peak {
			peaks[kind(v)] = true
		}
		lows[kind(lo)] = true
	}
	if peaks != [3]bool{true, true, true} || lows != [3]bool{true, true, true} {
		t.Errorf("peak kinds %v, minimum kinds %v (brain, shell, air): want all", peaks, lows)
	}
}

func TestHeadProjectionOfNoVoxels(t *testing.T) {
	for _, d := range [][3]int{{0, 4, 4}, {4, 0, 4}, {4, 4, 0}} {
		peak, lo, hi := HeadProjection(d[0], d[1], d[2])
		if len(peak) != d[0]*d[1] || lo != 0 || hi != 0 {
			t.Errorf("%dx%dx%d: %d peaks, range [%v, %v]; want %d and [0, 0]", d[0], d[1], d[2], len(peak), lo, hi, d[0]*d[1])
		}
		for _, v := range peak {
			if math.Float32bits(v) != 0 {
				t.Errorf("%dx%dx%d: peak %v, want +0", d[0], d[1], d[2], v)
			}
		}
	}
}

// FuzzHeadProjection checks HeadProjection against the plane fold on
// heads of 1 to 48 voxels along each axis, decoded from the input.
// Explore with
// go test -run '^$' -fuzz FuzzHeadProjection -fuzztime 30s ./internal/mri.
func FuzzHeadProjection(f *testing.F) {
	for _, d := range [][3]uint8{{0, 0, 0}, {1, 1, 1}, {0, 0, 4}, {2, 4, 6}, {16, 8, 0}, {47, 47, 47}, {9, 39, 12}} {
		f.Add(d[0], d[1], d[2])
	}
	f.Fuzz(func(t *testing.T, x, y, z uint8) {
		requireProjectionEqualsFold(t, 1+int(x)%48, 1+int(y)%48, 1+int(z)%48)
	})
}
