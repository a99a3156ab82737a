package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var updateAppGolden = flag.Bool("update-app-golden", false, "rewrite testdata/app_golden.json from this tree")

// appGoldenItems are the application scenarios whose reports are pure
// computation over a fixed input: the coupled MPI codes, the realtime
// fMRI session and the figure-3 overlay. Together with TestSimGolden
// and TestFigure4Golden they pin every deterministic report gtwrun all
// prints.
var appGoldenItems = []string{
	"climate-coupled", "groundwater-coupled", "fsi-cocolib", "meg-music",
	"fire-rt-session", "figure3-overlay",
}

// TestAppGolden compares the sha256 of each item's Report.JSON, with
// default options, against digests recorded before the application
// kernels stopped allocating per step: reusing a buffer must never
// change a computed byte. figure3-overlay is hashed with its wall-clock
// RenderMs zeroed. Regenerate only for a change that means to alter an
// application's output, with
// go test ./internal/core -run TestAppGolden -update-app-golden.
func TestAppGolden(t *testing.T) {
	// As for TestSimGolden: the recorded floats are amd64's.
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64 (FMA contraction differs on %s)", runtime.GOARCH)
	}
	path := filepath.Join("testdata", "app_golden.json")
	got := make(map[string]string)
	for _, name := range appGoldenItems {
		rep, err := Run(context.Background(), name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f3, ok := rep.(*Figure3Report); ok {
			f3.RenderMs = 0
		}
		b, err := rep.JSON()
		if err != nil {
			t.Fatalf("%s: JSON: %v", name, err)
		}
		sum := sha256.Sum256(b)
		got[name] = hex.EncodeToString(sum[:])
	}
	if *updateAppGolden {
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
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d digests, the test computes %d", path, len(want), len(got))
	}
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: report digest %s, recorded %s", name, d, want[name])
		}
	}
}
