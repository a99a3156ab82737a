// Package mri simulates the 1.5 Tesla Siemens Vision MRI scanner of the
// Institute of Medicine: a phantom head with tissue contrast, BOLD
// activation synthesized by convolving a stimulation time course with a
// hemodynamic response function (HRF), Gaussian thermal noise, slow
// baseline drift, and rigid subject motion. It also models the
// acquisition timing (repetition time TR, and the ~1.5 s delay before a
// 64x64x16 image is available at the RT-server).
//
// The ground truth (which voxels activate, with what delay/dispersion)
// is retained so the FIRE analysis chain can be validated end to end.
package mri

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/volume"
)

// HRF is a gamma-variate hemodynamic response model parameterized the
// way the paper's reference-vector optimization treats it: by the delay
// and dispersion (duration) of the blood-flow response to neuronal
// activation.
type HRF struct {
	// Delay is the time-to-peak of the response in seconds.
	Delay float64
	// Dispersion controls the width (duration) of the response in
	// seconds.
	Dispersion float64
}

// DefaultHRF is the canonical response: ~6 s to peak, ~1 s dispersion
// scale.
var DefaultHRF = HRF{Delay: 6.0, Dispersion: 1.0}

// Eval returns the response at t seconds after a unit impulse.
// The kernel is the gamma-variate (t/d)^a exp(-(t-d)/b) with shape
// a = Delay/Dispersion and scale b = Dispersion, peaking at t = Delay.
func (h HRF) Eval(t float64) float64 {
	if t <= 0 || h.Delay <= 0 || h.Dispersion <= 0 {
		return 0
	}
	a := h.Delay / h.Dispersion
	return math.Pow(t/h.Delay, a) * math.Exp(-(t-h.Delay)/h.Dispersion)
}

// Convolve returns the stimulus time course (sampled every tr seconds)
// convolved with the HRF, normalized to zero mean and unit variance —
// the paper's "reference vector". A constant (all-zero or all-one)
// stimulus yields a zero vector.
func (h HRF) Convolve(stim []float64, tr float64) []float64 {
	n := len(stim)
	out := make([]float64, n)
	// Discretize the kernel out to where it has decayed (~delay+10*disp).
	klen := int((h.Delay+10*h.Dispersion)/tr) + 1
	kernel := make([]float64, klen)
	for i := range kernel {
		kernel[i] = h.Eval(float64(i) * tr)
	}
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j <= i && j < klen; j++ {
			s += kernel[j] * stim[i-j]
		}
		out[i] = s
	}
	normalize(out)
	return out
}

// normalize demeans and scales to unit variance in place (no-op for
// constant vectors).
func normalize(v []float64) {
	var mean float64
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	var ss float64
	for i := range v {
		v[i] -= mean
		ss += v[i] * v[i]
	}
	if ss == 0 {
		return
	}
	inv := 1 / math.Sqrt(ss/float64(len(v)))
	for i := range v {
		v[i] *= inv
	}
}

// BlockStimulus builds the classic block-design stimulation time
// course: alternating rest/task blocks of blockScans scans each,
// starting with rest, for nScans scans.
func BlockStimulus(nScans, blockScans int) []float64 {
	s := make([]float64, nScans)
	for i := range s {
		if (i/blockScans)%2 == 1 {
			s[i] = 1
		}
	}
	return s
}

// Activation is a spherical activation site with its own hemodynamics.
type Activation struct {
	CX, CY, CZ float64 // center, voxel units
	Radius     float64 // voxels
	Amplitude  float64 // fractional BOLD signal change (e.g. 0.03)
	HRF        HRF
}

// Phantom is a synthetic head: an anatomical baseline plus activation
// sites.
type Phantom struct {
	Anatomy     *volume.Volume
	BrainMask   []bool // true where tissue signal is meaningful
	Activations []Activation
}

// NewPhantom builds an ellipsoidal head with a brain interior, a skull
// shell, and the given activation sites. Dimensions follow the paper's
// standard 64x64x16 acquisition unless changed by the caller.
func NewPhantom(nx, ny, nz int, acts []Activation) *Phantom {
	v := volume.New(nx, ny, nz)
	mask := make([]bool, v.Voxels())
	plane, n := HeadPlanes(nx, ny, nz), nx*ny
	for z := 0; z < nz; z++ {
		plane(z, v.Data[z*n:(z+1)*n], mask[z*n:(z+1)*n])
	}
	return &Phantom{Anatomy: v, BrainMask: mask, Activations: acts}
}

// HeadPlanes is the phantom's nx x ny x nz anatomy as a plane
// generator, so a consumer of a large head never holds the whole
// volume: plane(z, dst, mask) writes z-plane z, nx*ny voxels x fastest,
// into dst and, unless mask is nil, whether each voxel is brain into
// mask.
func HeadPlanes(nx, ny, nz int) (plane func(z int, dst []float32, mask []bool)) {
	h := newHead(nx, ny, nz)
	return func(z int, dst []float32, mask []bool) {
		ez, sz, n := h.ez2[z], h.texZ[z], len(h.ex2)
		for y, ey := range h.ey2 {
			row, cy := dst[y*n:(y+1)*n], h.texY[y]
			for x, ex := range h.ex2[:len(row)] {
				r := ex + ey + ez
				switch {
				case r < brainR: // brain tissue with mild spatial texture
					row[x] = brain(h.texX[x], cy, sz)
				case r < shellR: // skull/scalp shell
					row[x] = shell
				default: // air
					row[x] = 0
				}
			}
		}
		if mask == nil {
			return
		}
		for y, ey := range h.ey2 {
			row := mask[y*n : (y+1)*n]
			for x, ex := range h.ex2[:len(row)] {
				row[x] = ex+ey+ez < brainR
			}
		}
	}
}

// HeadProjection is the maximum-intensity projection along z of the
// head HeadPlanes draws, found without drawing it (figure 4's
// 256x256x128 head is 8.4 M voxels): peak holds each pixel's largest
// voxel, nx*ny of them x fastest, and lo and hi are the smallest and
// largest of all nx*ny*nz voxels (both 0 when there are none). Each is,
// bit for bit, what folding the planes gives.
//
// A column's voxel in plane z is brain while (ex²+ey²)+ez² < 0.75 and
// shell while it is < 1. Float addition is monotone, so with the planes
// sorted by ez² a column's brain voxels are its first kb planes and its
// brain and shell voxels its first ks; a binary search finds each
// count. A brain voxel's value brain(texX, texY, texZ) is monotone in
// texZ, so the column's brain peak is at the largest texZ of those kb
// planes (a prefix maximum of texZ in the sorted order) and, in a column
// of brain alone, its least value at the smallest texZ of all. Brain
// values lie in [600, 1000], above the shell's 300 and the air's +0,
// and no voxel is -0 or NaN, so the order of the fold does not matter.
func HeadProjection(nx, ny, nz int) (peak []float32, lo, hi float32) {
	peak = make([]float32, nx*ny)
	if len(peak) == 0 || nz <= 0 {
		return peak, 0, 0
	}
	h := newHead(nx, ny, nz)
	order := make([]int, nz)
	for z := range order {
		order[z] = z
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(h.ez2[a], h.ez2[b]) })
	// ez[k] is the k-th smallest ez², and tzMax[k] the largest texZ of
	// the first k planes in that order.
	ez, tzMax := make([]float64, nz), make([]float64, nz+1)
	tzMax[0] = math.Inf(-1)
	for k, z := range order {
		ez[k], tzMax[k+1] = h.ez2[z], max(tzMax[k], h.texZ[z])
	}
	tzLeast := slices.Min(h.texZ)
	// planes counts the planes from ez[from:] on whose voxel s + ez² < r.
	planes := func(s, r float64, from int) int {
		i, j := from, nz
		for i < j {
			m := int(uint(i+j) >> 1)
			if s+ez[m] < r {
				i = m + 1
			} else {
				j = m
			}
		}
		return i
	}
	lo = float32(math.Inf(1))
	for y, ey := range h.ey2 {
		row, cy := peak[y*nx:(y+1)*nx], h.texY[y]
		for x, ex := range h.ex2 {
			s := ex + ey
			kb := planes(s, brainR, 0)
			ks := planes(s, shellR, kb)
			// The column's peak and minimum; air is +0.
			var top, least float32
			switch {
			case kb > 0:
				top = brain(h.texX[x], cy, tzMax[kb])
			case ks > 0:
				top = shell
			}
			switch {
			case kb == nz:
				least = brain(h.texX[x], cy, tzLeast)
			case ks == nz:
				least = shell
			}
			row[x] = top
			lo, hi = min(lo, least), max(hi, top)
		}
	}
	return peak, lo, hi
}

// The head's tissue classes: a voxel is brain where (ex²+ey²)+ez² <
// brainR, shell where it is < shellR, and air (+0) elsewhere.
const (
	brainR = 0.75
	shellR = 1.0
	shell  = 300
)

// head holds the phantom's per-axis tables. Everything that depends on
// one coordinate only — the ellipsoid offsets and the texture's
// trigonometry — is tabulated per axis: the squares and the texture's
// factors are the products the per-voxel formulas (ex²+ey²)+ez² and
// 800 + 150·sin·cos + 50·sin form, each taken once per axis entry.
type head struct {
	ex2, ey2, ez2    []float64
	texX, texY, texZ []float64
}

func newHead(nx, ny, nz int) head {
	cx, cy, cz := float64(nx-1)/2, float64(ny-1)/2, float64(nz-1)/2
	rx, ry, rz := float64(nx)*0.42, float64(ny)*0.42, float64(nz)*0.46
	axis := func(n int, f func(i float64) float64) []float64 {
		t := make([]float64, n)
		for i := range t {
			t[i] = f(float64(i))
		}
		return t
	}
	sq := func(e float64) float64 { return e * e }
	return head{
		ex2:  axis(nx, func(x float64) float64 { return sq((x - cx) / rx) }),
		ey2:  axis(ny, func(y float64) float64 { return sq((y - cy) / ry) }),
		ez2:  axis(nz, func(z float64) float64 { return sq((z - cz) / rz) }),
		texX: axis(nx, func(x float64) float64 { return 150 * math.Sin(x*0.4) }),
		texY: axis(ny, func(y float64) float64 { return math.Cos(y * 0.3) }),
		texZ: axis(nz, func(z float64) float64 { return 50 * math.Sin(z) }),
	}
}

// brain is a brain voxel's value from its column's texture factors
// texX·texY and its plane's texZ. HeadPlanes and HeadProjection both
// call it, so both compile the same float operations, also where an
// architecture fuses the a*b+c into one FMA.
func brain(texX, texY, texZ float64) float32 { return float32(800 + texX*texY + texZ) }

// ActivationWeight reports the activation envelope of site a at voxel
// (x, y, z): 1 at the center falling smoothly to 0 at the radius.
func (a Activation) ActivationWeight(x, y, z int) float64 {
	dx := float64(x) - a.CX
	dy := float64(y) - a.CY
	dz := float64(z) - a.CZ
	d := math.Sqrt(dx*dx+dy*dy+dz*dz) / a.Radius
	if d >= 1 {
		return 0
	}
	return 0.5 * (1 + math.Cos(math.Pi*d))
}

// ScanConfig configures a simulated acquisition run.
type ScanConfig struct {
	NX, NY, NZ   int
	TR           float64 // repetition time, seconds (paper: up to 2 s)
	NScans       int
	Stimulus     []float64 // len NScans; nil = block design 8-scan blocks
	NoiseStd     float64   // thermal noise std dev in signal units
	DriftPerScan float64   // linear baseline drift in signal units/scan
	// Motion is an optional per-scan rigid translation (voxels);
	// index t gives the subject displacement during scan t.
	Motion []Shift
	Seed   int64
}

// Shift is a rigid translation in voxel units.
type Shift struct{ DX, DY, DZ float64 }

// Scanner generates the EPI time series for a phantom.
type Scanner struct {
	Phantom *Phantom
	Cfg     ScanConfig
	refs    [][]float64 // per-activation expected responses
	// gains lists every (brain voxel, activation) pair with a non-zero
	// envelope, in voxel order and, within a voxel, activation order —
	// the order Next applies them in.
	gains []gain
	rng   noiseSource
	// noise holds one chunk's noise draws: Next draws them a chunk at a
	// time, ahead of the voxels they are added to.
	noise []float64
	t     int
	// vol is the volume Next returns every call. A moved scan is
	// synthesized into raw and shifted into vol through shift.
	vol, raw *volume.Volume
	shift    volume.Sampler
}

// gain is one activation's BOLD modulation depth at one voxel:
// Amplitude times the envelope weight there.
type gain struct {
	voxel, act int
	depth      float64
}

// NewScanner prepares an acquisition of cfg.NScans volumes.
func NewScanner(ph *Phantom, cfg ScanConfig) *Scanner {
	if cfg.Stimulus == nil {
		cfg.Stimulus = BlockStimulus(cfg.NScans, 8)
	}
	base := ph.Anatomy
	s := &Scanner{Phantom: ph, Cfg: cfg, vol: volume.New(base.NX, base.NY, base.NZ),
		noise: make([]float64, min(noiseChunk, len(base.Data)))}
	s.rng.seed(cfg.Seed + 1)
	for _, a := range ph.Activations {
		s.refs = append(s.refs, a.HRF.Convolve(cfg.Stimulus, cfg.TR))
	}
	// The envelopes do not change from scan to scan: evaluate them once.
	for idx, brain := range ph.BrainMask {
		if !brain {
			continue
		}
		x, y, z := idx%base.NX, idx/base.NX%base.NY, idx/(base.NX*base.NY)
		for ai, a := range ph.Activations {
			if w := a.ActivationWeight(x, y, z); w > 0 {
				s.gains = append(s.gains, gain{idx, ai, a.Amplitude * w})
			}
		}
	}
	return s
}

// ScansDone reports how many volumes have been generated so far.
func (s *Scanner) ScansDone() int { return s.t }

// noiseChunk is how many voxels' noise Next draws at a time.
const noiseChunk = 4096

// motion reports the subject's displacement during scan t and whether
// there is one.
func (s *Scanner) motion(t int) (Shift, bool) {
	var m Shift
	if t < len(s.Cfg.Motion) {
		m = s.Cfg.Motion[t]
	}
	return m, m.DX != 0 || m.DY != 0 || m.DZ != 0
}

// Next synthesizes the next volume in the series, or returns nil when
// the acquisition is complete.
//
// The scanner owns the result: every call returns the same *Volume,
// overwritten, so it is valid until the next call. A caller that keeps
// a scan past that clones it. Next allocates only on the first scan
// that moves, for the buffers the shift reuses from then on.
func (s *Scanner) Next() *volume.Volume {
	if s.t >= s.Cfg.NScans {
		return nil
	}
	m, moved := s.motion(s.t)
	out := s.vol
	if moved {
		if s.raw == nil {
			s.raw = volume.New(out.NX, out.NY, out.NZ)
		}
		out = s.raw
	}
	// Everything that holds for the whole scan is read once: the
	// drift, the noise, and the next voxel an activation modulates.
	ph, t := s.Phantom, s.t
	drift, std := s.Cfg.DriftPerScan*float64(t), s.Cfg.NoiseStd
	gains, next := s.gains, -1
	if len(gains) > 0 {
		next = gains[0].voxel
	}
	anat := ph.Anatomy.Data
	mask, dst := ph.BrainMask[:len(anat)], out.Data[:len(anat)]
	for c := 0; c < len(anat); c += noiseChunk {
		chunk := anat[c:min(c+noiseChunk, len(anat))]
		brain, voxels, noise := mask[c:c+len(chunk)], dst[c:c+len(chunk)], s.noise[:len(chunk)]
		if std > 0 {
			s.rng.fill(noise)
		}
		for k, b := range chunk {
			sig := float64(b)
			if brain[k] {
				for c+k == next {
					sig *= 1 + gains[0].depth*s.refs[gains[0].act][t]
					if gains, next = gains[1:], -1; len(gains) > 0 {
						next = gains[0].voxel
					}
				}
				sig += drift
			}
			if std > 0 {
				sig += noise[k] * std
			}
			voxels[k] = float32(sig)
		}
	}
	if moved {
		s.shift.Shift(s.vol, s.raw, m.DX, m.DY, m.DZ)
	}
	s.t++
	return s.vol
}

// NextROI synthesizes the next scan at the given voxels only, or
// reports false, writing nothing, when the acquisition is complete:
// dst[k] gets the value Next's volume would hold at voxel index
// voxels[k]. The indices must be ascending and dst at least as long.
//
// The noise draws of every other voxel are stepped past, not computed,
// so later scans are the ones Next would give. A scan that moves is
// synthesized whole by Next and gathered, since every voxel of a
// shifted scan reads its neighbours.
func (s *Scanner) NextROI(voxels []int, dst []float32) bool {
	if s.t >= s.Cfg.NScans {
		return false
	}
	dst = dst[:len(voxels)]
	if _, moved := s.motion(s.t); moved {
		v := s.Next()
		for k, idx := range voxels {
			dst[k] = v.Data[idx]
		}
		return true
	}
	// The per-voxel arithmetic is Next's.
	ph, t := s.Phantom, s.t
	drift, std := s.Cfg.DriftPerScan*float64(t), s.Cfg.NoiseStd
	anat, gains, drawn := ph.Anatomy.Data, s.gains, 0
	mask := ph.BrainMask[:len(anat)]
	for k, idx := range voxels {
		if k > 0 && idx <= voxels[k-1] {
			panic("mri: NextROI voxels are not ascending")
		}
		sig := float64(anat[idx])
		if mask[idx] {
			for len(gains) > 0 && gains[0].voxel < idx {
				gains = gains[1:]
			}
			for ; len(gains) > 0 && gains[0].voxel == idx; gains = gains[1:] {
				sig *= 1 + gains[0].depth*s.refs[gains[0].act][t]
			}
			sig += drift
		}
		if std > 0 {
			s.rng.skip(idx - drawn)
			sig += s.rng.norm() * std
			drawn = idx + 1
		}
		dst[k] = float32(sig)
	}
	if std > 0 {
		s.rng.skip(len(anat) - drawn)
	}
	s.t++
	return true
}

// Reference returns the normalized expected response of activation i —
// what an ideal analysis should correlate against.
func (s *Scanner) Reference(i int) []float64 { return s.refs[i] }

// Timing constants from section 4 of the paper.
const (
	// AvailabilityDelay is the time after a scan completes before the
	// raw 64x64x16 image is available at the RT-server (~1.5 s).
	AvailabilityDelay = 1.5
	// TypicalTR is the repetition time used in most experiments (s).
	TypicalTR = 2.0
	// SafeTR is the repetition rate the unpipelined system sustains
	// (the paper operates the scanner at 3 s).
	SafeTR = 3.0
)
