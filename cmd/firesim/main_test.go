package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	gtw "repro"
)

// TestRunWritesPinnedOverlay runs firesim end to end for the 30 scans of
// fire-rt-session's default options and checks that the PNG it writes
// is the overlay of the report pinned in
// internal/core/testdata/app_golden.json.
func TestRunWritesPinnedOverlay(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digest is recorded on amd64 (FMA contraction differs on %s)", runtime.GOARCH)
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "internal", "core", "testdata", "app_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	rep, err := gtw.Run(context.Background(), "fire-rt-session")
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != golden["fire-rt-session"] {
		t.Fatalf("fire-rt-session report sha256 %x, pinned %s", sum, golden["fire-rt-session"])
	}

	out := filepath.Join(t.TempDir(), "overlay.png")
	var stdout bytes.Buffer
	if err := run([]string{"-scans", "30", "-out", out}, &stdout); err != nil {
		t.Fatal(err)
	}
	png, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(png, rep.(*gtw.RTSessionReport).PNG) {
		t.Errorf("overlay.png (%d bytes) is not the pinned report's overlay (%d bytes)", len(png), len(rep.(*gtw.RTSessionReport).PNG))
	}
	if !strings.Contains(stdout.String(), "30 scans analysed, overlay written to "+out) {
		t.Errorf("stdout does not name the PNG:\n%s", stdout.String())
	}
}

func TestRunRejectsUnknownFlag(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown flag accepted")
	}
}
