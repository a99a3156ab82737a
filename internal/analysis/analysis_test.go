package analysis_test

import (
	"go/ast"
	"path/filepath"
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

// TestLoadChecksTests loads a package with internal and external tests:
// each test build is a test package of its own, holding only its
// _test.go files, and the ordinary package holds none of them.
func TestLoadChecksTests(t *testing.T) {
	prog, err := analysis.Load("testdata/tests", "./...")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	files := func(pkg *analysis.Package) string {
		var names []string
		for _, f := range pkg.Files {
			names = append(names, filepath.Base(prog.Fset.Position(f.Pos()).Filename))
		}
		return strings.Join(names, " ")
	}
	var got []string
	for _, pkg := range prog.Pkgs {
		got = append(got, pkg.Path+" ["+pkg.ForTest+"] "+files(pkg))
	}
	for _, pkg := range prog.Tests {
		got = append(got, pkg.Path+" ["+pkg.ForTest+"] "+files(pkg))
	}
	want := "fixture/p [] p.go|fixture/p [fixture/p] p_test.go|fixture/p_test [fixture/p] x_test.go"
	if g := strings.Join(got, "|"); g != want {
		t.Errorf("loaded %q, want %q", g, want)
	}
}

func TestLoadFailsOnTestTypeError(t *testing.T) {
	if _, err := analysis.Load("testdata/badtest", "./..."); err == nil {
		t.Fatal("a test file that does not type-check loaded")
	}
}
