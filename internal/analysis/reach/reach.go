// Package reach flags exported library code that nothing but its own
// package's tests reaches. Every exported function should serve a
// scenario, a binary or the benchmark; one that only its own tests call
// is either dead (delete it), a reference its tests pin other code
// against (move it into a _test.go file), or waived with a reason.
//
// A function or method with an exported name, declared in a package that
// is neither the module root (the importable API) nor a main package, is
// reached when
//
//   - non-test module code outside its own declaration uses it,
//   - a non-test file under the module's bench/ directory names it, or
//   - a _test.go file of another package names it.
//
// The first is decided by go/types. The other two are matched with
// go/parser only: a function as pkg.Name through the file's import of
// its package, a method by its name alone, so any selector of that name
// reaches every method so named (a floor, not an exact answer). A method
// that implements an interface method declared in the program or in a
// package it imports is exempt: an interface call reaches it without
// naming it. Callers count only from loaded packages, so the answer is
// meaningful for a whole-module load (gtwvet ./...), not a subset.
package reach

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// benchDir is the module-relative directory of the benchmark module,
// whose non-test files count as callers.
const benchDir = "bench"

// New builds the reach analyzer.
func New() *analysis.Analyzer {
	var (
		cachedFor *analysis.Program
		cached    *refs
	)
	return &analysis.Analyzer{
		Name: "reach",
		Doc:  "exported library functions must be reached by non-test code, bench/ or another package's tests",
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

// refs is what the whole program references.
type refs struct {
	// uses holds the functions non-test module code uses.
	uses map[*types.Func]bool
	// named maps "importpath.Name" (a function) or ".Name" (a method)
	// to the directories of the files, parsed with go/parser, that name
	// it.
	named map[string]map[string]bool
	// ifaces indexes every interface in view by its method names.
	ifaces    map[string][]*types.Interface
	seenIface map[*types.Interface]bool
}

// check reports the exported functions and methods of the pass's
// package that r does not reach.
func check(pass *analysis.Pass, r *refs) {
	pkg := pass.Pkg
	if pkg.Path == pass.Prog.ModulePath || pkg.Types.Name() == "main" {
		return
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok || r.uses[fn] {
				continue
			}
			key, what := pkg.Path+"."+fd.Name.Name, fd.Name.Name
			if fd.Recv != nil {
				recv := fn.Type().(*types.Signature).Recv().Type()
				if r.implements(recv, fd.Name.Name) {
					continue
				}
				key, what = "."+fd.Name.Name, recvName(recv)+"."+fd.Name.Name
			}
			ownTests := false
			reached := false
			for dir := range r.named[key] {
				if dir == pkg.Dir {
					ownTests = true
				} else {
					reached = true
				}
			}
			if reached {
				continue
			}
			by := "nothing references it"
			if ownTests {
				by = "only its own package's tests reference it"
			}
			pass.Reportf(fd.Name.Pos(), "%s is unreached: %s (delete it, move it into a _test.go file, or waive it)", what, by)
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

// collect gathers what the program, its test files and bench/ reference.
func collect(prog *analysis.Program) (*refs, error) {
	r := &refs{
		uses:      make(map[*types.Func]bool),
		named:     make(map[string]map[string]bool),
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
		for _, name := range pkg.TestFiles {
			if err := r.scanFile(name, pkg.Dir, pkg.Path); err != nil {
				return nil, err
			}
		}
	}
	root := filepath.Join(prog.ModuleDir, benchDir)
	if _, err := os.Stat(root); err != nil {
		return r, nil
	}
	err := filepath.WalkDir(root, func(name string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		return r.scanFile(name, filepath.Dir(name), "")
	})
	return r, err
}

// scanUses records the functions pkg's non-test code uses, except a
// function's uses of itself.
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
				if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && fn.Origin() != self {
					r.uses[fn.Origin()] = true
				}
				return true
			})
		}
	}
}

// scanFile records what one file outside the type-checked program
// names. own is the import path of the package the file tests, or ""
// for a bench/ file; in an internal test file every bare identifier may
// name one of own's functions.
func (r *refs) scanFile(name, dir, own string) error {
	f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
	if err != nil {
		return fmt.Errorf("reach: %v", err)
	}
	imports := make(map[string]string)
	for _, is := range f.Imports {
		p, _ := strconv.Unquote(is.Path.Value)
		local := path.Base(p)
		if is.Name != nil {
			local = is.Name.Name
		}
		imports[local] = p
	}
	internal := own != "" && !strings.HasSuffix(f.Name.Name, "_test")
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if p, ok := imports[id.Name]; ok {
					r.name(p+"."+x.Sel.Name, dir)
					return false
				}
			}
			r.name("."+x.Sel.Name, dir)
		case *ast.Ident:
			if internal {
				r.name(own+"."+x.Name, dir)
			}
		}
		return true
	})
	return nil
}

// name records that a file in dir names key.
func (r *refs) name(key, dir string) {
	dirs := r.named[key]
	if dirs == nil {
		dirs = make(map[string]bool)
		r.named[key] = dirs
	}
	dirs[dir] = true
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
