package viz

import (
	"bytes"
	"image/color"
	"image/png"
	"math"
	"math/rand"
	"testing"

	"repro/internal/atm"
	"repro/internal/volume"
)

func testVolumes() (*volume.Volume, *volume.Volume) {
	anat := volume.New(16, 16, 8)
	corr := volume.New(16, 16, 8)
	for z := 0; z < 8; z++ {
		for y := 0; y < 16; y++ {
			for x := 0; x < 16; x++ {
				anat.Set(x, y, z, float32(100+10*x))
			}
		}
	}
	corr.Set(8, 8, 4, 0.9)
	corr.Set(9, 8, 4, -0.85)
	corr.Set(2, 2, 4, 0.3) // below clip
	return anat, corr
}

func TestRenderOverlayColorsActivation(t *testing.T) {
	anat, corr := testVolumes()
	img, err := RenderOverlay(anat, corr, 4, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	// Activated positive voxel: warm color (red channel saturated).
	c := img.RGBAAt(8, 8)
	if c.R != 255 || c.B != 0 {
		t.Errorf("positive activation color = %+v", c)
	}
	// Negative: cold color.
	c = img.RGBAAt(9, 8)
	if c.B != 255 || c.R != 0 {
		t.Errorf("negative activation color = %+v", c)
	}
	// Sub-clip voxel stays gray (R==G==B).
	c = img.RGBAAt(2, 2)
	if c.R != c.G || c.G != c.B {
		t.Errorf("sub-clip voxel colored: %+v", c)
	}
}

func TestRenderOverlayValidation(t *testing.T) {
	anat, corr := testVolumes()
	if _, err := RenderOverlay(anat, volume.New(4, 4, 4), 0, 0.5); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := RenderOverlay(anat, corr, 99, 0.5); err == nil {
		t.Error("bad slice accepted")
	}
}

func TestWritePNGProducesDecodableImage(t *testing.T) {
	anat, corr := testVolumes()
	img, err := RenderOverlay(anat, corr, 4, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePNG(&buf, img); err != nil {
		t.Fatal(err)
	}
	decoded, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Bounds().Dx() != 16 {
		t.Error("decoded size wrong")
	}
}

func TestMergeFunctionalUpsamples(t *testing.T) {
	corr := volume.New(8, 8, 4)
	corr.Set(4, 4, 2, 1.0)
	anatHi := volume.New(32, 32, 16)
	up := MergeFunctional(anatHi, corr)
	if !up.SameShape(anatHi) {
		t.Fatal("merged shape mismatch")
	}
	// The peak should appear near the corresponding upsampled
	// location (4/7 of the way -> ~x=17-18).
	peakX := int(math.Round(4.0 / 7.0 * 31))
	peakZ := int(math.Round(2.0 / 3.0 * 15))
	if up.At(peakX, peakX, peakZ) < 0.5 {
		t.Errorf("upsampled peak value %v at (%d,%d,%d)", up.At(peakX, peakX, peakZ), peakX, peakX, peakZ)
	}
	// Far corner untouched.
	if up.At(0, 0, 0) != 0 {
		t.Error("far corner should be 0")
	}
}

func TestRenderMIPHighlightsActivation(t *testing.T) {
	anat, corr := testVolumes()
	hi := MergeFunctional(anat, corr) // same shape here
	img, err := RenderMIP(anat, hi, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	c := img.RGBAAt(8, 8)
	if c.R != 255 {
		t.Errorf("activated column not highlighted: %+v", c)
	}
	c = img.RGBAAt(0, 0)
	if c.R != c.G || c.G != c.B {
		t.Errorf("inactive column colored: %+v", c)
	}
	if _, err := RenderMIP(anat, volume.New(2, 2, 2), 0.5); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestWorkbenchArithmetic(t *testing.T) {
	// 2 planes x stereo x 1024x768 x 24 bit = 9.4 MByte per frame.
	if WorkbenchFrameBytes != 2*2*1024*768*3 {
		t.Errorf("WorkbenchFrameBytes = %d", WorkbenchFrameBytes)
	}
	// The headline claim: fewer than 8 frames/s over 622 Mbit/s ATM
	// with classical IP.
	fps := WorkbenchFPS(atm.OC12.PayloadRate(), atm.DefaultCLIPMTU)
	if fps >= 8 {
		t.Errorf("OC-12 classical-IP workbench rate = %.2f fps, paper says < 8", fps)
	}
	if fps < 6 {
		t.Errorf("OC-12 rate = %.2f fps, implausibly low", fps)
	}
	// OC-48 would lift it fourfold.
	fps48 := WorkbenchFPS(atm.OC48.PayloadRate(), atm.DefaultCLIPMTU)
	if fps48 < 3.9*fps || fps48 > 4.1*fps {
		t.Errorf("OC-48/OC-12 ratio = %.2f, want ~4", fps48/fps)
	}
	// Degenerate MTU.
	if WorkbenchFPS(atm.OC12.PayloadRate(), 40) != 0 {
		t.Error("degenerate MTU should yield 0")
	}
	// A larger MTU improves the rate (less header tax).
	if WorkbenchFPS(atm.OC12.PayloadRate(), atm.MaxCLIPMTU) <= fps {
		t.Error("64K MTU should beat the default CLIP MTU")
	}
}

// A one-voxel axis used to divide by zero in the coordinate scale and
// fill the merged volume with NaN; it samples coordinate 0 instead, so
// merging flat volumes is plain 2-D bilinear upsampling.
func TestMergeFunctionalOneVoxelAxis(t *testing.T) {
	corr := volume.New(4, 4, 1)
	for i := range corr.Data {
		corr.Data[i] = float32(i*i%7) - 3
	}
	up := MergeFunctional(volume.New(8, 8, 1), corr)
	if up.NX != 8 || up.NY != 8 || up.NZ != 1 {
		t.Fatalf("merged shape %dx%dx%d", up.NX, up.NY, up.NZ)
	}
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			cx, cy := float64(x)*3/7, float64(y)*3/7
			x0, y0 := int(cx), int(cy)
			x1, y1 := min(x0+1, 3), min(y0+1, 3)
			fx, fy := cx-float64(x0), cy-float64(y0)
			lo := float64(corr.At(x0, y0, 0))*(1-fx) + float64(corr.At(x1, y0, 0))*fx
			hi := float64(corr.At(x0, y1, 0))*(1-fx) + float64(corr.At(x1, y1, 0))*fx
			want := float32(lo*(1-fy) + hi*fy)
			if got := up.At(x, y, 0); got != want {
				t.Fatalf("merged (%d,%d) = %v, bilinear %v", x, y, got, want)
			}
		}
	}
	// Both volumes one voxel thick along every axis: still finite.
	if got := MergeFunctional(volume.New(1, 1, 1), corr).At(0, 0, 0); got != corr.At(0, 0, 0) {
		t.Errorf("1x1x1 merge = %v, want the map's corner %v", got, corr.At(0, 0, 0))
	}
}

// RenderMIP walks the volume plane by plane; its pixels must equal the
// column-by-column projection it replaced.
func TestRenderMIPEqualsColumnOrderReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	anat, fn := volume.New(13, 9, 6), volume.New(13, 9, 6)
	for i := range anat.Data {
		anat.Data[i] = float32(rng.NormFloat64()*300 + 200) // some columns all-negative
		fn.Data[i] = float32(rng.Float64())
	}
	const clip = 0.9
	img, err := RenderMIP(anat, fn, clip)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := anat.MinMax()
	scale := 200 / float64(hi-lo)
	sawActive, sawQuiet := false, false
	for y := 0; y < anat.NY; y++ {
		for x := 0; x < anat.NX; x++ {
			var peak float32
			active := false
			for z := 0; z < anat.NZ; z++ {
				if v := anat.At(x, y, z); v > peak {
					peak = v
				}
				if float64(fn.At(x, y, z)) >= clip {
					active = true
				}
			}
			g := uint8(float64(peak-lo) * scale)
			want := color.RGBA{g, g, g, 255}
			if active {
				want = color.RGBA{255, 200, g / 2, 255}
				sawActive = true
			} else {
				sawQuiet = true
			}
			if got := img.RGBAAt(x, y); got != want {
				t.Fatalf("pixel (%d,%d) = %+v, column-order reference %+v", x, y, got, want)
			}
		}
	}
	if !sawActive || !sawQuiet {
		t.Fatalf("test volume exercises only one branch (active %v, quiet %v)", sawActive, sawQuiet)
	}
}
