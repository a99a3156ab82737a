// Package reach flags exported library code that no shipped code
// reaches. Every exported function should serve a scenario, a binary or
// the benchmark; one that only tests call is either dead (delete it), a
// reference tests pin other code against (move it into a _test.go
// file), or waived with a reason.
//
// A function or method with an exported name, declared in a package that
// is neither the module root (the importable API), a main package, nor a
// test-helper package (one whose name ends in "test", as httptest), is
// reached when
//
//   - non-test module code outside its own declaration uses it, or
//   - non-test code of the benchmark module under bench/ uses it.
//
// A use from a _test.go file counts for nothing: a test of code only
// tests run pins nothing that ships.
//
// Every use is decided by go/types: bench/ is loaded as its own module,
// with this module imported from export data. The two loads do not share
// objects, so a use is matched to a declaration by
// (*types.Func).FullName: a call to another type's method of the same
// name reaches nothing here. A method that implements an interface
// method declared in the program or in a package it imports is exempt:
// an interface call reaches it without naming it. Callers count only
// from loaded packages, so the answer is meaningful for a whole-module
// load (gtwvet ./...), not a subset.
package reach

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// benchDir is the module-relative directory of the benchmark module,
// whose non-test code counts as a caller.
const benchDir = "bench"

// New builds the reach analyzer.
func New() *analysis.Analyzer {
	var (
		cachedFor *analysis.Program
		cached    *refs
	)
	return &analysis.Analyzer{
		Name: "reach",
		Doc:  "exported library functions must be reached by non-test module code or bench/",
		Run: func(pass *analysis.Pass) error {
			if cachedFor != pass.Prog {
				r, err := collect(pass.Prog)
				if err != nil {
					return err
				}
				cachedFor, cached = pass.Prog, r
			}
			check(pass, cached)
			return nil
		},
	}
}

// refs is what the whole program references, by (*types.Func).FullName.
type refs struct {
	// uses holds the functions non-test module code or bench/ uses.
	uses map[string]bool
	// ifaces indexes every interface in view by its method names.
	ifaces    map[string][]*types.Interface
	seenIface map[*types.Interface]bool
}

// check reports the exported functions and methods of the pass's
// package that r does not reach.
func check(pass *analysis.Pass, r *refs) {
	pkg := pass.Pkg
	if name := pkg.Types.Name(); pkg.Path == pass.Prog.ModulePath || name == "main" || strings.HasSuffix(name, "test") {
		return
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok || r.uses[fn.FullName()] {
				continue
			}
			what := fd.Name.Name
			if fd.Recv != nil {
				recv := fn.Type().(*types.Signature).Recv().Type()
				if r.implements(recv, fd.Name.Name) {
					continue
				}
				what = recvName(recv) + "." + fd.Name.Name
			}
			pass.Reportf(fd.Name.Pos(), "%s is unreached: no non-test code or bench/ uses it (delete it, move it into a _test.go file, or waive it)", what)
		}
	}
}

// implements reports whether recv (or a pointer to it) implements an
// interface that has a method called name.
func (r *refs) implements(recv types.Type, name string) bool {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, iface := range r.ifaces[name] {
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// recvName names a receiver type without its package or pointer.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// collect gathers what the program and bench/ use.
func collect(prog *analysis.Program) (*refs, error) {
	r := &refs{
		uses:      make(map[string]bool),
		ifaces:    make(map[string][]*types.Interface),
		seenIface: make(map[*types.Interface]bool),
	}
	seen := make(map[*types.Package]bool)
	r.addInterface(types.Universe.Lookup("error").Type())
	for _, pkg := range prog.Pkgs {
		r.scanUses(pkg)
		r.addInterfaces(pkg.Types, seen)
		for _, tv := range pkg.Info.Types {
			r.addInterface(tv.Type)
		}
	}
	root := filepath.Join(prog.ModuleDir, benchDir)
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return r, nil
	}
	bench, err := analysis.Load(root, "./...")
	if err != nil {
		return nil, err
	}
	for _, pkg := range bench.Pkgs {
		r.scanUses(pkg)
	}
	return r, nil
}

// scanUses records the functions pkg's files use, except a function's
// uses of itself.
func (r *refs) scanUses(pkg *analysis.Package) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			var self types.Object
			if fd, ok := d.(*ast.FuncDecl); ok {
				self = pkg.Info.Defs[fd.Name]
			}
			ast.Inspect(d, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := pkg.Info.Uses[id].(*types.Func)
				if !ok || fn.Origin() == self {
					return true
				}
				r.uses[fn.Origin().FullName()] = true
				return true
			})
		}
	}
}

// addInterfaces indexes the named interfaces of pkg and of every
// package it imports, transitively.
func (r *refs) addInterfaces(pkg *types.Package, seen map[*types.Package]bool) {
	if seen[pkg] {
		return
	}
	seen[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
				r.addInterface(n)
			}
		}
	}
	for _, imp := range pkg.Imports() {
		r.addInterfaces(imp, seen)
	}
}

// addInterface indexes t when it is an interface with methods.
func (r *refs) addInterface(t types.Type) {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok || iface.NumMethods() == 0 || r.seenIface[iface] {
		return
	}
	r.seenIface[iface] = true
	for i := 0; i < iface.NumMethods(); i++ {
		name := iface.Method(i).Name()
		r.ifaces[name] = append(r.ifaces[name], iface)
	}
}
