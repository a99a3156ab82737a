package main

import (
	"bytes"
	"strings"
	"testing"

	gtw "repro"
)

// TestRunPrintsRegistryAndCoAllocation runs the example end to end: it
// must list every registered scenario and reach the co-allocation step.
func TestRunPrintsRegistryAndCoAllocation(t *testing.T) {
	var stdout bytes.Buffer
	if err := run(&stdout); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, s := range gtw.Scenarios() {
		if !strings.Contains(out, "  "+s.Name()+" ") {
			t.Errorf("scenario %q not listed", s.Name())
		}
	}
	if n := strings.Count(out, "(err=<nil>)"); n != 3 {
		t.Errorf("%d of 3 concurrent runs succeeded:\n%s", n, out)
	}
	if !strings.Contains(out, "co-allocated T3E + Onyx2 + workstation for session fmri-demo\n") {
		t.Errorf("co-allocation line missing:\n%s", out)
	}
}
