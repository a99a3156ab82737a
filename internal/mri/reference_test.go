package mri

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/volume"
)

// The tests in this file pin "same bits": NewPhantom and Scanner.Next
// take their per-axis and per-scanner constants from tables, and must
// produce exactly what the direct per-voxel formulas below — the code
// they replaced, kept verbatim — produce.

// referencePhantom evaluates the head formula voxel by voxel: three
// divisions, two Sin and a Cos each.
func referencePhantom(nx, ny, nz int) (*volume.Volume, []bool) {
	v := volume.New(nx, ny, nz)
	mask := make([]bool, v.Voxels())
	cx, cy, cz := float64(nx-1)/2, float64(ny-1)/2, float64(nz-1)/2
	rx, ry, rz := float64(nx)*0.42, float64(ny)*0.42, float64(nz)*0.46
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				ex := (float64(x) - cx) / rx
				ey := (float64(y) - cy) / ry
				ez := (float64(z) - cz) / rz
				r := ex*ex + ey*ey + ez*ez
				idx := v.Idx(x, y, z)
				switch {
				case r < 0.75:
					v.Data[idx] = float32(800 + 150*math.Sin(float64(x)*0.4)*math.Cos(float64(y)*0.3) + 50*math.Sin(float64(z)))
					mask[idx] = true
				case r < 1.0:
					v.Data[idx] = 300
				default:
					v.Data[idx] = 0
				}
			}
		}
	}
	return v, mask
}

// tabulatedPhantom is NewPhantom as it was before the head became a
// plane generator: the per-axis tables and one loop over the whole
// volume.
func tabulatedPhantom(nx, ny, nz int) (*volume.Volume, []bool) {
	v := volume.New(nx, ny, nz)
	mask := make([]bool, v.Voxels())
	cx, cy, cz := float64(nx-1)/2, float64(ny-1)/2, float64(nz-1)/2
	rx, ry, rz := float64(nx)*0.42, float64(ny)*0.42, float64(nz)*0.46
	// Everything that depends on one coordinate only — the ellipsoid
	// offsets and the texture's trigonometry — is tabulated per axis.
	axis := func(n int, f func(i float64) float64) []float64 {
		t := make([]float64, n)
		for i := range t {
			t[i] = f(float64(i))
		}
		return t
	}
	exs := axis(nx, func(x float64) float64 { return (x - cx) / rx })
	eys := axis(ny, func(y float64) float64 { return (y - cy) / ry })
	ezs := axis(nz, func(z float64) float64 { return (z - cz) / rz })
	sinX := axis(nx, func(x float64) float64 { return math.Sin(x * 0.4) })
	cosY := axis(ny, func(y float64) float64 { return math.Cos(y * 0.3) })
	sinZ := axis(nz, math.Sin)
	idx := 0
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				ex, ey, ez := exs[x], eys[y], ezs[z]
				r := ex*ex + ey*ey + ez*ez
				switch {
				case r < 0.75: // brain tissue with mild spatial texture
					v.Data[idx] = float32(800 + 150*sinX[x]*cosY[y] + 50*sinZ[z])
					mask[idx] = true
				case r < 1.0: // skull/scalp shell
					v.Data[idx] = 300
				default: // air
					v.Data[idx] = 0
				}
				idx++
			}
		}
	}
	return v, mask
}

// referenceSeries synthesizes cfg.NScans volumes the way Next did
// before the activation envelopes were precomputed: ActivationWeight
// (a Sqrt and a Cos) per brain voxel per activation per scan, and the
// motion applied with one Trilinear call per voxel.
func referenceSeries(ph *Phantom, cfg ScanConfig) []*volume.Volume {
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	var refs [][]float64
	for _, a := range ph.Activations {
		refs = append(refs, a.HRF.Convolve(cfg.Stimulus, cfg.TR))
	}
	base := ph.Anatomy
	var series []*volume.Volume
	for t := 0; t < cfg.NScans; t++ {
		out := volume.New(base.NX, base.NY, base.NZ)
		drift := cfg.DriftPerScan * float64(t)
		for z := 0; z < base.NZ; z++ {
			for y := 0; y < base.NY; y++ {
				for x := 0; x < base.NX; x++ {
					idx := base.Idx(x, y, z)
					sig := float64(base.Data[idx])
					if ph.BrainMask[idx] {
						for ai, a := range ph.Activations {
							w := a.ActivationWeight(x, y, z)
							if w > 0 {
								sig *= 1 + a.Amplitude*w*refs[ai][t]
							}
						}
						sig += drift
					}
					if cfg.NoiseStd > 0 {
						sig += rng.NormFloat64() * cfg.NoiseStd
					}
					out.Data[idx] = float32(sig)
				}
			}
		}
		if cfg.Motion != nil && t < len(cfg.Motion) {
			m := cfg.Motion[t]
			if m.DX != 0 || m.DY != 0 || m.DZ != 0 {
				moved := volume.New(base.NX, base.NY, base.NZ)
				for z := 0; z < base.NZ; z++ {
					for y := 0; y < base.NY; y++ {
						for x := 0; x < base.NX; x++ {
							moved.Set(x, y, z, out.Trilinear(float64(x)-m.DX, float64(y)-m.DY, float64(z)-m.DZ))
						}
					}
				}
				out = moved
			}
		}
		series = append(series, out)
	}
	return series
}

// scanSeries runs sc to the end and keeps a clone of every scan: Next
// overwrites the one volume it returns.
func scanSeries(sc *Scanner) []*volume.Volume {
	var series []*volume.Volume
	for v := sc.Next(); v != nil; v = sc.Next() {
		series = append(series, &volume.Volume{NX: v.NX, NY: v.NY, NZ: v.NZ, Data: slices.Clone(v.Data)})
	}
	return series
}

// digest hashes volumes' voxel bits (and, if given, a mask).
func digest(mask []bool, vols ...*volume.Volume) [sha256.Size]byte {
	h := sha256.New()
	var word [4]byte
	for _, v := range vols {
		for _, x := range v.Data {
			binary.LittleEndian.PutUint32(word[:], math.Float32bits(x))
			h.Write(word[:])
		}
	}
	for _, m := range mask {
		if m {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return [sha256.Size]byte(h.Sum(nil))
}

func TestPhantomEqualsDirectFormulaBitForBit(t *testing.T) {
	for _, d := range [][3]int{{64, 64, 16}, {256, 256, 128}, {5, 1, 3}} {
		ph := NewPhantom(d[0], d[1], d[2], nil)
		want, wantMask := referencePhantom(d[0], d[1], d[2])
		if digest(ph.BrainMask, ph.Anatomy) != digest(wantMask, want) {
			t.Errorf("%dx%dx%d phantom differs from the direct formula", d[0], d[1], d[2])
		}
	}
}

// NewPhantom fills its volume through HeadPlanes; a consumer that asks
// for planes into reused buffers — stale voxels and mask bits left over
// from a previous plane, or no mask at all — must get the same bits.
func TestHeadPlanesEqualTabulatedPhantomBitForBit(t *testing.T) {
	for _, d := range [][3]int{{64, 64, 16}, {256, 256, 128}, {5, 1, 3}, {7, 9, 1}, {1, 1, 1}} {
		want, wantMask := tabulatedPhantom(d[0], d[1], d[2])
		ph := NewPhantom(d[0], d[1], d[2], nil)
		if digest(ph.BrainMask, ph.Anatomy) != digest(wantMask, want) {
			t.Errorf("%dx%dx%d: NewPhantom differs from the tabulated whole-volume loop", d[0], d[1], d[2])
		}
		n := d[0] * d[1]
		head, anat, mask := HeadPlanes(d[0], d[1], d[2]), volume.New(d[0], d[1], d[2]), make([]bool, n*d[2])
		plane, planeMask := make([]float32, n), make([]bool, n)
		for i := range plane {
			plane[i], planeMask[i] = float32(math.NaN()), true
		}
		for z := 0; z < d[2]; z++ {
			head(z, plane, planeMask)
			copy(anat.Data[z*n:], plane)
			copy(mask[z*n:], planeMask)
		}
		if digest(mask, anat) != digest(wantMask, want) {
			t.Errorf("%dx%dx%d: planes into reused buffers differ from the tabulated loop", d[0], d[1], d[2])
		}
		for i := range anat.Data {
			anat.Data[i] = float32(math.NaN())
		}
		for z := 0; z < d[2]; z++ {
			head(z, anat.Data[z*n:(z+1)*n], nil)
		}
		if digest(nil, anat) != digest(nil, want) {
			t.Errorf("%dx%dx%d: maskless planes differ from the tabulated loop", d[0], d[1], d[2])
		}
	}
}

func TestScannerSeriesEqualsPerVoxelEnvelopeBitForBit(t *testing.T) {
	// Two overlapping sites (both modulate the voxels between them, in
	// activation order), noise, drift, and motion on most scans.
	acts := []Activation{
		{CX: 12, CY: 14, CZ: 5, Radius: 5, Amplitude: 0.04, HRF: DefaultHRF},
		{CX: 16, CY: 14, CZ: 6, Radius: 4.5, Amplitude: 0.03, HRF: HRF{Delay: 5, Dispersion: 1.2}},
	}
	ph := NewPhantom(32, 32, 10, acts)
	cfg := ScanConfig{NX: 32, NY: 32, NZ: 10, TR: 2, NScans: 12, Stimulus: BlockStimulus(12, 3),
		NoiseStd: 4, DriftPerScan: 0.5, Seed: 21,
		Motion: []Shift{{}, {DX: 0.4}, {DX: -1.3, DY: 0.2, DZ: 0.6}, {}, {DY: 2}, {DX: 0.1, DY: 0.1, DZ: -0.1},
			{DZ: 40}, {DX: 0.7, DY: -0.7}, {}, {DX: -0.2, DZ: 0.3}}} // scans 10, 11: past the list
	got := scanSeries(NewScanner(ph, cfg))
	want := referenceSeries(ph, cfg)
	if len(got) != len(want) {
		t.Fatalf("%d scans, want %d", len(got), len(want))
	}
	for i := range want {
		if digest(nil, got[i]) != digest(nil, want[i]) {
			t.Errorf("scan %d differs from the per-voxel synthesis", i)
		}
	}
}

// parentHeadPlanes is HeadPlanes as it was before its per-row terms were
// hoisted and its mask loop split out, kept verbatim but for its name.
func parentHeadPlanes(nx, ny, nz int) (plane func(z int, dst []float32, mask []bool)) {
	cx, cy, cz := float64(nx-1)/2, float64(ny-1)/2, float64(nz-1)/2
	rx, ry, rz := float64(nx)*0.42, float64(ny)*0.42, float64(nz)*0.46
	// Everything that depends on one coordinate only — the ellipsoid
	// offsets and the texture's trigonometry — is tabulated per axis.
	axis := func(n int, f func(i float64) float64) []float64 {
		t := make([]float64, n)
		for i := range t {
			t[i] = f(float64(i))
		}
		return t
	}
	exs := axis(nx, func(x float64) float64 { return (x - cx) / rx })
	eys := axis(ny, func(y float64) float64 { return (y - cy) / ry })
	ezs := axis(nz, func(z float64) float64 { return (z - cz) / rz })
	sinX := axis(nx, func(x float64) float64 { return math.Sin(x * 0.4) })
	cosY := axis(ny, func(y float64) float64 { return math.Cos(y * 0.3) })
	sinZ := axis(nz, math.Sin)
	return func(z int, dst []float32, mask []bool) {
		ez, sz, i := ezs[z], sinZ[z], 0
		for y, ey := range eys {
			for x, ex := range exs {
				r := ex*ex + ey*ey + ez*ez
				switch {
				case r < 0.75: // brain tissue with mild spatial texture
					dst[i] = float32(800 + 150*sinX[x]*cosY[y] + 50*sz)
				case r < 1.0: // skull/scalp shell
					dst[i] = 300
				default: // air
					dst[i] = 0
				}
				if mask != nil {
					mask[i] = r < 0.75
				}
				i++
			}
		}
	}
}

// stale fills a plane and a mask with what a reused buffer may hold:
// -0, infinities, NaN and set mask bits.
func stale(plane []float32, mask []bool) {
	specials := []float32{float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 7}
	for i := range plane {
		plane[i] = specials[i%len(specials)]
	}
	for i := range mask {
		mask[i] = i%3 != 0
	}
}

func TestHeadPlanesEqualParentBitForBit(t *testing.T) {
	for _, d := range [][3]int{{64, 64, 16}, {256, 256, 128}, {5, 1, 3}, {7, 9, 1}, {1, 1, 1}, {33, 17, 5}} {
		n := d[0] * d[1]
		head, parent := HeadPlanes(d[0], d[1], d[2]), parentHeadPlanes(d[0], d[1], d[2])
		got, want := volume.New(d[0], d[1], 1), volume.New(d[0], d[1], 1)
		gotMask, wantMask := make([]bool, n), make([]bool, n)
		for z := 0; z < d[2]; z++ {
			for _, withMask := range []bool{true, false} {
				stale(got.Data, gotMask)
				stale(want.Data, wantMask)
				gm, wm := gotMask, wantMask
				if !withMask {
					gm, wm = nil, nil
				}
				head(z, got.Data, gm)
				parent(z, want.Data, wm)
				if digest(gotMask, got) != digest(wantMask, want) {
					t.Fatalf("%dx%dx%d plane %d (mask %v): differs from the parent's HeadPlanes", d[0], d[1], d[2], z, withMask)
				}
			}
		}
	}
}

// parentScanner is a Scanner whose noise comes from math/rand, the
// generator the scanner drew from before it had its own: its rng field
// shadows the Scanner's.
type parentScanner struct {
	*Scanner
	rng *rand.Rand
}

// parentNext is Scanner.Next as it was before its per-scan invariants
// were hoisted out of the voxel loop, kept verbatim but for its name and
// receiver.
func (s parentScanner) parentNext() *volume.Volume {
	if s.t >= s.Cfg.NScans {
		return nil
	}
	var m Shift
	if s.t < len(s.Cfg.Motion) {
		m = s.Cfg.Motion[s.t]
	}
	moved := m.DX != 0 || m.DY != 0 || m.DZ != 0
	out := s.vol
	if moved {
		if s.raw == nil {
			s.raw = volume.New(out.NX, out.NY, out.NZ)
		}
		out = s.raw
	}
	ph := s.Phantom
	drift := s.Cfg.DriftPerScan * float64(s.t)
	gains := s.gains
	for idx, b := range ph.Anatomy.Data {
		sig := float64(b)
		if ph.BrainMask[idx] {
			for ; len(gains) > 0 && gains[0].voxel == idx; gains = gains[1:] {
				sig *= 1 + gains[0].depth*s.refs[gains[0].act][s.t]
			}
			sig += drift
		}
		if s.Cfg.NoiseStd > 0 {
			sig += s.rng.NormFloat64() * s.Cfg.NoiseStd
		}
		out.Data[idx] = float32(sig)
	}
	if moved {
		s.shift.Shift(s.vol, s.raw, m.DX, m.DY, m.DZ)
	}
	s.t++
	return s.vol
}

func TestScannerNextEqualsParentBitForBit(t *testing.T) {
	acts := []Activation{
		{CX: 12, CY: 14, CZ: 5, Radius: 5, Amplitude: 0.04, HRF: DefaultHRF},
		{CX: 16, CY: 14, CZ: 6, Radius: 4.5, Amplitude: 0.03, HRF: HRF{Delay: 5, Dispersion: 1.2}},
		{CX: 16, CY: 18, CZ: 8, Radius: 2, Amplitude: 0.05, HRF: DefaultHRF}, // among the last brain voxels
	}
	ph := NewPhantom(32, 32, 10, acts)
	// Sources a scan may meet: -0 in the air, and infinities and NaN in
	// and outside the brain, one of them at an activated voxel.
	for i, v := range ph.Anatomy.Data {
		if v == 0 {
			ph.Anatomy.Data[i] = float32(math.Copysign(0, -1))
		}
	}
	for i, x := range []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())} {
		ph.Anatomy.Set(12+i, 14, 5, x)  // brain, activated
		ph.Anatomy.Set(1+i, 1, 0, x)    // air
		ph.Anatomy.Set(16, 3+i*4, 5, x) // wherever the ellipsoid puts it
	}
	motion := []Shift{{}, {DX: 0.4}, {DX: -1.3, DY: 0.2, DZ: 0.6}, {}, {DY: 2}, {DZ: 40}, {DX: 0.7, DY: -0.7}}
	for _, cfg := range []ScanConfig{
		{NX: 32, NY: 32, NZ: 10, TR: 2, NScans: 9, NoiseStd: 4, DriftPerScan: 0.5, Seed: 21, Motion: motion},
		{NX: 32, NY: 32, NZ: 10, TR: 2, NScans: 5, Seed: 5, Stimulus: []float64{0, 1, 1, 0, 1}}, // no noise, no drift
	} {
		got := NewScanner(ph, cfg)
		want := parentScanner{NewScanner(ph, cfg), rand.New(rand.NewSource(cfg.Seed + 1))}
		for scan := 0; ; scan++ {
			g, w := got.Next(), want.parentNext()
			if (g == nil) != (w == nil) {
				t.Fatalf("scan %d: Next gave %v, the parent's %v", scan, g != nil, w != nil)
			}
			if g == nil {
				break
			}
			if digest(nil, g) != digest(nil, w) {
				t.Fatalf("seed %d scan %d differs from the parent's Next", cfg.Seed, scan)
			}
		}
	}
}
