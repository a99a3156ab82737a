package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestRunWritesPinnedHead runs the example end to end and checks that
// the PNG it writes is the figure4-workbench head pinned in
// internal/core/testdata/figure4_golden.json.
func TestRunWritesPinnedHead(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digest is recorded on amd64 (FMA contraction differs on %s)", runtime.GOARCH)
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "internal", "core", "testdata", "figure4_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		PNGSHA256 string `json:"png_sha256"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "head.png")
	var stdout bytes.Buffer
	if err := run([]string{"-out", out}, &stdout); err != nil {
		t.Fatal(err)
	}
	png, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(png); hex.EncodeToString(sum[:]) != golden.PNGSHA256 {
		t.Errorf("head.png sha256 %x, pinned %s", sum, golden.PNGSHA256)
	}
	if !strings.Contains(stdout.String(), "rendered activated head to "+out) {
		t.Errorf("stdout does not name the PNG:\n%s", stdout.String())
	}
}

func TestRunRejectsUnknownFlag(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown flag accepted")
	}
}
