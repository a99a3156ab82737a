package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/pointdeps"
)

// The pointdeps analyzer derives, from source, the Options fields each
// registered scenario's points actually read. This test pins the
// derived sets: editing a point function so it reads a new field (or
// stops reading one) fails here loudly, pointing straight at the
// PointDeps declaration that must move with it — the ROADMAP's "derive
// PointDeps, catch stale declarations" item, closed mechanically.
//
// `deps` strings are ordered wan, ext, pes, frames, flows (the
// canonical OptField order). "∀" in the table below would mean the
// derivation escaped and went conservative; no registration should.
func TestPointDepsDerivedSetsArePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	prog, err := analysis.Load(".", "repro/...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	entries, err := pointdeps.Audit(prog, pointdeps.Config{})
	if err != nil {
		t.Fatalf("audit: %v", err)
	}

	type pinned struct {
		kind     string
		declared []string // nil = no PointDeps declaration (keys on all fields)
		derived  []string
	}
	want := map[string]pinned{
		"figure1-throughput":    {"sweep", []string{"wan", "ext"}, []string{"wan", "ext"}},
		"backbone-aggregate":    {"sweep", []string{"flows"}, []string{"flows"}},
		"mixed-traffic":         {"sweep", []string{}, []string{}},
		"fmri-pe-sweep":         {"sweep", []string{"wan", "ext", "frames"}, []string{"wan", "ext", "frames"}},
		"table1-model":          {"scenario", nil, []string{}},
		"figure2-endtoend":      {"scenario", nil, []string{"wan", "ext", "pes", "frames"}},
		"figure3-overlay":       {"scenario", nil, []string{}},
		"figure4-workbench":     {"scenario", nil, []string{"wan", "ext"}},
		"section3-applications": {"scenario", nil, []string{"wan", "ext"}},
		"fmri-dataflow":         {"scenario", nil, []string{"wan", "ext", "pes", "frames"}},
		"future-work":           {"scenario", nil, []string{}},
		"climate-coupled":       {"scenario", nil, []string{"wan", "ext"}},
		"groundwater-coupled":   {"scenario", nil, []string{"wan", "ext"}},
		"fsi-cocolib":           {"scenario", nil, []string{"wan", "ext"}},
		"meg-music":             {"scenario", nil, []string{"wan", "ext"}},
		"video-d1":              {"scenario", nil, []string{"frames"}},
		"fire-rt-session":       {"scenario", nil, []string{"frames"}},
	}

	got := map[string]pointdeps.Entry{}
	for _, e := range entries {
		if _, dup := got[e.Name]; dup {
			t.Errorf("registration %q audited twice", e.Name)
		}
		got[e.Name] = e
	}

	for name, w := range want {
		e, ok := got[name]
		if !ok {
			t.Errorf("registration %q not found by the audit", name)
			continue
		}
		if e.Kind != w.kind {
			t.Errorf("%s: kind = %q, want %q", name, e.Kind, w.kind)
		}
		if !reflect.DeepEqual(e.Declared, w.declared) {
			t.Errorf("%s: declared = %v, want %v", name, e.Declared, w.declared)
		}
		if !reflect.DeepEqual(e.Derived, w.derived) {
			t.Errorf("%s: derived = %v, want %v\n%s", name, e.Derived, w.derived, moveHint(e))
		}
		if e.Escaped {
			t.Errorf("%s: derivation escaped (went conservative); point paths should stay within the module", name)
		}
	}
	for _, e := range entries {
		if _, ok := want[e.Name]; !ok {
			t.Errorf("unpinned registration %q (derived %v) — add it to this table", e.Name, e.Derived)
		}
	}
}

func moveHint(e pointdeps.Entry) string {
	return fmt.Sprintf("\tif the point function's reads changed on purpose, update both this table and the PointDeps(...) declaration at %s", e.Pos)
}
