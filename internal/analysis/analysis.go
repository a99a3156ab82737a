// Package analysis is the repository's static-analysis framework: a
// dependency-free reimplementation of the golang.org/x/tools
// go/analysis shape (Analyzer, Pass, Diagnostic, a fixture-driven test
// harness) on top of go/ast and go/types, loaded through the go
// toolchain (see load.go). It exists because the execution plane rests
// on invariants no compiler checks — byte-identical reports at any
// shard count, PointDeps declarations matching real Options reads,
// pooled handles released on every path — and those must be enforced by
// machines on every commit, not re-derived by reviewers.
//
// The four shipped analyzers live in the pointdeps, determinism,
// poolrelease and reach subpackages; cmd/gtwvet is the multichecker
// binary.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	// Pos is the finding's position in the program's file set.
	Pos token.Pos
	// Analyzer names the analyzer that produced the finding.
	Analyzer string
	// Message states the defect and its consequence.
	Message string
}

// Analyzer is one invariant checker. Run is invoked once per
// main-module package; interprocedural analyzers reach the rest of the
// program through pass.Prog.
type Analyzer struct {
	// Name is the directive key (`//gtwvet:ignore <name> <reason>`).
	Name string
	// Doc is the one-line description shown by gtwvet -list.
	Doc string
	// Run reports the package's findings through pass.Reportf.
	Run func(pass *Pass) error
}

// Pass is one (analyzer, package) execution.
type Pass struct {
	// Prog is the whole loaded program, for interprocedural walks.
	Prog *Program
	// Pkg is the package under analysis.
	Pkg *Package

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos: pos, Analyzer: p.analyzer.Name, Message: fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over every package of the program, applies
// //gtwvet:ignore suppression, and returns the surviving diagnostics in
// file/position order.
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range prog.Pkgs {
			pass := &Pass{Prog: prog, Pkg: pkg, analyzer: a, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %v", a.Name, pkg.Path, err)
			}
		}
	}
	diags = suppress(prog, diags)
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := prog.Fset.Position(diags[i].Pos), prog.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// ignoreDirective is one parsed `//gtwvet:ignore <analyzer> <reason>`
// comment. A directive suppresses matching diagnostics on its own line
// and on the line immediately below it (so it can ride above a
// statement or trail one). The reason is mandatory: a suppression with
// no recorded justification is itself diagnosed.
type ignoreDirective struct {
	file     string
	line     int
	analyzer string
	reason   string
	pos      token.Pos
}

const directivePrefix = "//gtwvet:ignore"

// suppress drops diagnostics covered by ignore directives and appends a
// diagnostic for every malformed or unused directive, so directives
// cannot silently rot.
func suppress(prog *Program, diags []Diagnostic) []Diagnostic {
	var directives []ignoreDirective
	var malformed []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, directivePrefix) {
						continue
					}
					rest := strings.TrimPrefix(c.Text, directivePrefix)
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						malformed = append(malformed, Diagnostic{
							Pos: c.Pos(), Analyzer: "gtwvet",
							Message: "malformed ignore directive: want //gtwvet:ignore <analyzer> <reason>",
						})
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					directives = append(directives, ignoreDirective{
						file: pos.Filename, line: pos.Line,
						analyzer: fields[0],
						reason:   strings.Join(fields[1:], " "),
						pos:      c.Pos(),
					})
				}
			}
		}
	}

	used := make([]bool, len(directives))
	var out []Diagnostic
	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		matched := false
		for i, dir := range directives {
			if dir.analyzer != d.Analyzer || dir.file != pos.Filename {
				continue
			}
			if dir.line == pos.Line || dir.line == pos.Line-1 {
				used[i] = true
				matched = true
			}
		}
		if !matched {
			out = append(out, d)
		}
	}
	for i, dir := range directives {
		if !used[i] {
			out = append(out, Diagnostic{
				Pos: dir.pos, Analyzer: "gtwvet",
				Message: fmt.Sprintf("unused ignore directive for %q: nothing to suppress here", dir.analyzer),
			})
		}
	}
	return append(out, malformed...)
}

// ---------------------------------------------------------- ast utils --

// Unparen strips any number of parentheses from an expression.
func Unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// RootIdent returns the leftmost identifier of a selector/index chain
// (`a` for `a.b.c[i].d`, or `&a.b`), or nil when the chain is not
// rooted in one.
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}
