package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestListPrintsFourAnalyzers(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var names []string
	for _, l := range lines {
		names = append(names, strings.Fields(l)[0])
	}
	if got := strings.Join(names, " "); got != "pointdeps determinism poolrelease reach" {
		t.Errorf("analyzers = %q", got)
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{{"-run", "nosuch", "./..."}, {"-nosuchflag"}} {
		var out, errb bytes.Buffer
		if code := run(append([]string{"-C", "../.."}, args...), &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, errb.String())
		}
		if errb.Len() == 0 {
			t.Errorf("%v: nothing on stderr", args)
		}
	}
}

// TestModuleIsClean runs every analyzer over the whole module, as CI's
// static-analysis job does, so a finding fails tier-1 too.
func TestModuleIsClean(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-C", "../..", "./..."}, &out, &errb); code != 0 {
		t.Fatalf("exit %d:\n%s%s", code, out.String(), errb.String())
	}
}
