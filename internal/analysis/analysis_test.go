package analysis_test

import (
	"go/ast"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// testcheck flags every call to a function literally named flagme —
// just enough analyzer to drive the suppression machinery.
func testcheck() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "testcheck",
		Doc:  "flags calls to flagme",
		Run: func(pass *analysis.Pass) error {
			for _, f := range pass.Pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if id, ok := analysis.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "flagme" {
						pass.Reportf(call.Pos(), "call to flagme")
					}
					return true
				})
			}
			return nil
		},
	}
}

func TestIgnoreDirectives(t *testing.T) {
	prog, err := analysis.Load("testdata/directives", "./...")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := analysis.Run(prog, []*analysis.Analyzer{testcheck()})
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	var got []string
	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		got = append(got, d.Analyzer+"@"+strconv.Itoa(pos.Line)+": "+d.Message)
	}

	// Exactly these survive, in position order: the undirected call,
	// the directive naming a different analyzer (reported unused), the
	// call under it (not suppressed), the free-floating unused
	// directive, and the malformed one. The two correctly placed
	// directives (line above, trailing) suppress silently.
	want := []struct{ prefix, contains string }{
		{"testcheck@8:", "call to flagme"},
		{"gtwvet@21:", `unused ignore directive for "othercheck"`},
		{"testcheck@22:", "call to flagme"},
		{"gtwvet@25:", `unused ignore directive for "testcheck"`},
		{"gtwvet@28:", "malformed ignore directive"},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i, w := range want {
		if !strings.HasPrefix(got[i], w.prefix) || !strings.Contains(got[i], w.contains) {
			t.Errorf("diagnostic %d = %q, want prefix %q containing %q", i, got[i], w.prefix, w.contains)
		}
	}
}
