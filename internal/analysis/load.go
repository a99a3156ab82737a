package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// This file is the package loader behind gtwvet. The repository is
// deliberately dependency-free, so instead of golang.org/x/tools'
// go/packages the loader drives the go toolchain directly:
//
//	go list -export -deps -json <patterns>
//
// enumerates every package in dependency order and materialises export
// data (in the build cache) for all of them. Packages outside the main
// module are imported from that export data through go/importer's
// lookup hook — never re-type-checked — while the main module's own
// packages are parsed and type-checked from source, in the dependency
// order go list guarantees, so their ASTs and type objects share one
// identity space across packages. That identity sharing is what lets
// the pointdeps analyzer walk a call from internal/core into another
// module package and keep resolving objects.
//
// Test files are not loaded: every analyzer checks shipped code, and
// `go vet` and `go test` type-check the tests.

// Package is one type-checked main-module package.
type Package struct {
	// Path is the import path ("repro/internal/core").
	Path string
	// Dir is the package's source directory.
	Dir string
	// Files are the parsed non-test Go files, with comments.
	Files []*ast.File
	// Types is the source-checked package object.
	Types *types.Package
	// Info carries the type-checker's facts for Files.
	Info *types.Info
}

// Program is a loaded, type-checked view of one module's packages plus
// a global function-declaration index for interprocedural walks.
type Program struct {
	// Fset is the file set shared by every package in the program.
	Fset *token.FileSet
	// Pkgs are the main-module packages, sorted by import path.
	Pkgs []*Package
	// ModulePath is the main module's path ("repro").
	ModulePath string
	// ModuleDir is the main module's root directory.
	ModuleDir string

	byPath map[string]*Package
	decls  map[*types.Func]*FuncSource
}

// FuncSource locates a function's declaration inside the program.
type FuncSource struct {
	Decl *ast.FuncDecl
	Pkg  *Package
}

// Package resolves a loaded main-module package by import path.
func (p *Program) Package(path string) *Package { return p.byPath[path] }

// FuncDecl resolves a function object to its source declaration, or nil
// when the function's body is outside the main module (or it has none).
func (p *Program) FuncDecl(fn *types.Func) *FuncSource { return p.decls[fn] }

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Module     *struct {
		Path, Dir string
		Main      bool
	}
	Error *struct{ Err string }
}

// Load lists patterns under dir (the module root, or any directory
// inside the module) and type-checks every main-module package they
// resolve to. A type error in any of them fails the load.
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,Module,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	var pkgs []listPkg
	exports := make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listPkg
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("analysis: package %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		pkgs = append(pkgs, lp)
	}

	prog := &Program{
		Fset:   token.NewFileSet(),
		byPath: make(map[string]*Package),
		decls:  make(map[*types.Func]*FuncSource),
	}
	// The main module is dir's own, even where it imports another local
	// module through a replace (as bench/ imports repro): only the main
	// module is checked from source.
	for _, lp := range pkgs {
		if lp.Module != nil && lp.Module.Main {
			prog.ModulePath, prog.ModuleDir = lp.Module.Path, lp.Module.Dir
			break
		}
	}

	l := &loader{
		prog: prog,
		base: importer.ForCompiler(prog.Fset, "gc", func(path string) (io.ReadCloser, error) {
			f, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("analysis: no export data for %q", path)
			}
			return os.Open(f)
		}),
	}
	for _, lp := range pkgs {
		if lp.Module == nil || !lp.Module.Main {
			continue
		}
		if err := l.check(lp); err != nil {
			return nil, err
		}
	}
	sort.Slice(prog.Pkgs, func(i, j int) bool { return prog.Pkgs[i].Path < prog.Pkgs[j].Path })
	return prog, nil
}

// loader type-checks main-module packages from source, in go list's
// dependency order.
type loader struct {
	prog *Program
	base types.Importer
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// check parses and type-checks one listed main-module package and
// files it under prog.Pkgs.
func (l *loader) check(lp listPkg) error {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		name = filepath.Join(lp.Dir, name)
		f, err := parser.ParseFile(l.prog.Fset, name, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("analysis: parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if pkg := l.prog.byPath[path]; pkg != nil {
			return pkg.Types, nil
		}
		return l.base.Import(path)
	})}
	tpkg, err := conf.Check(lp.ImportPath, l.prog.Fset, files, info)
	if err != nil {
		return fmt.Errorf("analysis: type-checking %s: %v", lp.ImportPath, err)
	}
	pkg := &Package{Path: lp.ImportPath, Dir: lp.Dir, Files: files, Types: tpkg, Info: info}
	l.prog.Pkgs = append(l.prog.Pkgs, pkg)
	l.prog.byPath[pkg.Path] = pkg
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				l.prog.decls[fn] = &FuncSource{Decl: fd, Pkg: pkg}
			}
		}
	}
	return nil
}
