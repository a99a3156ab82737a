package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

var updateFigure4Golden = flag.Bool("update-figure4-golden", false, "rewrite testdata/figure4_golden.json from this tree")

// figure4Golden is everything deterministic figure4-workbench produces:
// the rendered head (by digest), the model rows and the measured stream.
type figure4Golden struct {
	PNGSHA256 string       `json:"png_sha256"`
	PNGBytes  int          `json:"png_bytes"`
	StreamFPS float64      `json:"stream_fps"`
	Rows      []Figure4Row `json:"rows"`
}

// TestFigure4Golden compares figure4-workbench's PNG digest, rows and
// stream rate with values recorded while the head was still rendered
// from three whole 256x256x128 volumes: the projected pipeline must
// draw the same image. Regenerate only for a change that means to
// alter the picture, with
// go test ./internal/core -run TestFigure4Golden -update-figure4-golden.
func TestFigure4Golden(t *testing.T) {
	// As for TestSimGolden: the head formula and the trilinear weights
	// are a*b+c chains that other architectures fuse into one FMA.
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digest is recorded on amd64 (FMA contraction differs on %s)", runtime.GOARCH)
	}
	path := filepath.Join("testdata", "figure4_golden.json")
	r, err := figure4WorkbenchOn(context.Background(), New(Config{}))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(r.PNG)
	got := figure4Golden{hex.EncodeToString(sum[:]), r.PNGBytes, r.StreamFPS, r.Rows}
	if *updateFigure4Golden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want figure4Golden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("figure4-workbench\n got %+v\nwant %+v (%s)", got, want, path)
	}
}

// TestFigure4WorkbenchAllocatesNoVolume bounds what one figure4 run
// allocates. Rendering from whole volumes cost 75.5 MB (anatomy,
// brain mask, upsampled map) and plane by plane 2.2 MB; from the head's
// projection it is the peaks, the activity, the image and the PNG
// encoder (~1.7 MB), so a single 33 MB volume, or the plane loop's two
// 256x256 planes and its upsampled map's cached slices, fail the bound.
func TestFigure4WorkbenchAllocatesNoVolume(t *testing.T) {
	const bound = 2 << 20
	tb := New(Config{})
	least := leastAlloc(t, func() error {
		_, err := figure4WorkbenchOn(context.Background(), tb)
		return err
	})
	if least >= bound {
		t.Errorf("figure4WorkbenchOn allocates %.1f MB, want under %d MB", float64(least)/(1<<20), bound>>20)
	}
	t.Logf("figure4WorkbenchOn allocates %.2f MB", float64(least)/(1<<20))
}
