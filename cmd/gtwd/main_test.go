package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestUnknownFlagExits2(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stderr); code != 2 {
		t.Errorf("exit %d, want the usage error 2; stderr: %s", code, stderr.String())
	}
}

// A -tenants file that is missing or not valid JSON stops the
// coordinator before it listens, and the log names the file.
func TestBadTenantsFileFailsNamingIt(t *testing.T) {
	dir := t.TempDir()
	malformed := filepath.Join(dir, "malformed.json")
	if err := os.WriteFile(malformed, []byte(`{"tenants": [`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join(dir, "missing.json"), malformed} {
		var stderr bytes.Buffer
		if code := run([]string{"-addr", "127.0.0.1:0", "-tenants", path}, &stderr); code == 0 {
			t.Errorf("%s: exit 0, want an error", path)
		}
		if !strings.Contains(stderr.String(), path) {
			t.Errorf("%s: stderr does not name the file:\n%s", path, stderr.String())
		}
	}
}

// An address already in use fails the run, but only after the opened
// -data-dir journal is closed: Close takes the final snapshot.
func TestTakenAddrClosesJournal(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	dir := t.TempDir()
	var stderr bytes.Buffer
	if code := run([]string{"-addr", l.Addr().String(), "-data-dir", dir}, &stderr); code == 0 {
		t.Fatalf("exit 0 on a taken address; stderr: %s", stderr.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil {
		t.Errorf("journal not closed (no final snapshot): %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "coordinator stopped") {
		t.Errorf("stderr lacks the stop line:\n%s", stderr.String())
	}
}
