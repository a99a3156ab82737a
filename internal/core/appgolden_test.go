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
	"strings"
	"testing"
)

var updateAppGolden = flag.Bool("update-app-golden", false, "rewrite testdata/app_golden.json from this tree")

// appGoldenItems are the scenarios whose default-options reports are
// pinned here: the coupled MPI codes, the realtime fMRI session, the
// figure-3 overlay, the figure-4 workbench (its PNG is pinned by
// TestFigure4Golden), the Table 1 and outlook models, and the two
// sweeps TestSimGolden pins only at other options.
var appGoldenItems = []string{
	"climate-coupled", "groundwater-coupled", "fsi-cocolib", "meg-music",
	"fire-rt-session", "figure3-overlay", "figure4-workbench",
	"table1-model", "future-work", "backbone-aggregate", "fmri-pe-sweep",
}

// TestAppGolden compares the sha256 of each item's Report.JSON, with
// default options, against recorded digests: reusing a buffer or
// restructuring a kernel must never change a computed byte. Regenerate
// only for a change that means to alter a report, with
// go test ./internal/core -run TestAppGolden -update-app-golden.
func TestAppGolden(t *testing.T) {
	// As for TestSimGolden: the recorded floats are amd64's.
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64 (FMA contraction differs on %s)", runtime.GOARCH)
	}
	got := make(map[string]string)
	for _, name := range appGoldenItems {
		rep, err := Run(context.Background(), name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = reportDigest(t, name, rep)
	}
	checkDigests(t, filepath.Join("testdata", "app_golden.json"), got, *updateAppGolden)
}

// TestGoldensCoverEveryScenario fails when a registered scenario's
// default-options report is pinned by neither app_golden.json nor
// sim_golden.json: every report gtwrun all prints is checked byte for
// byte.
func TestGoldensCoverEveryScenario(t *testing.T) {
	app := readDigests(t, filepath.Join("testdata", "app_golden.json"))
	sim := readDigests(t, filepath.Join("testdata", "sim_golden.json"))
	pinned := make(map[string]bool)
	for name := range app {
		pinned[name] = true
	}
	for _, it := range simGoldenItems {
		if it.opts == nil && sim[it.key+"/kernels=1"] != "" {
			pinned[it.scenario] = true
		}
	}
	for _, s := range Scenarios() {
		// This package's tests register probes named test-*.
		if !pinned[s.Name()] && !strings.HasPrefix(s.Name(), "test-") {
			t.Errorf("scenario %s has no default-options digest in app_golden.json or sim_golden.json", s.Name())
		}
	}
}

// reportDigest is the hex sha256 of a report's JSON.
func reportDigest(t *testing.T, name string, rep Report) string {
	t.Helper()
	b, err := rep.JSON()
	if err != nil {
		t.Fatalf("%s: JSON: %v", name, err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// readDigests loads a golden file's name -> digest map.
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]string
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return m
}

// checkDigests compares got with the digests recorded at path, or
// rewrites path from got when update is set.
func checkDigests(t *testing.T, path string, got map[string]string, update bool) {
	t.Helper()
	if update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readDigests(t, path)
	if len(want) != len(got) {
		t.Errorf("%s holds %d digests, the test computes %d", path, len(want), len(got))
	}
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: report digest %s, recorded %s", name, d, want[name])
		}
	}
}
