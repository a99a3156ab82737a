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

// Package is one type-checked main-module package.
type Package struct {
	// Path is the import path ("repro/internal/core").
	Path string
	// Dir is the package's source directory.
	Dir string
	// Files are the parsed non-test Go files, with comments.
	Files []*ast.File
	// TestFiles are the paths of the package's _test.go files (internal
	// and external). They are listed, not parsed or type-checked.
	TestFiles []string
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
	// Pkgs are the main-module packages in dependency order
	// (dependencies before dependents).
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
	ImportPath                string
	Dir                       string
	Export                    string
	Standard                  bool
	GoFiles                   []string
	TestGoFiles, XTestGoFiles []string
	Module                    *struct{ Path, Dir string }
	Incomplete                bool
	Error                     *struct{ Err string }
}

// Load lists patterns under dir (the module root, or any directory
// inside the module) and type-checks every main-module package they
// resolve to. Test files are only listed (Package.TestFiles), not
// type-checked: gtwvet checks the shipped tree, and fixtures are
// ordinary non-test packages.
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,Standard,GoFiles,TestGoFiles,XTestGoFiles,Module,Incomplete,Error",
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
	// The main module is whichever module the listed source packages
	// belong to (go list resolves patterns against dir's module).
	for _, lp := range pkgs {
		if !lp.Standard && lp.Module != nil {
			prog.ModulePath, prog.ModuleDir = lp.Module.Path, lp.Module.Dir
			break
		}
	}

	imp := &programImporter{
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
		if lp.Standard || lp.Module == nil || lp.Module.Path != prog.ModulePath {
			continue
		}
		pkg, err := typeCheck(prog, imp, lp)
		if err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
		prog.byPath[pkg.Path] = pkg
	}
	sort.Slice(prog.Pkgs, func(i, j int) bool { return prog.Pkgs[i].Path < prog.Pkgs[j].Path })
	return prog, nil
}

// programImporter resolves main-module imports to their source-checked
// packages and everything else to export data.
type programImporter struct {
	prog *Program
	base types.Importer
}

func (pi *programImporter) Import(path string) (*types.Package, error) {
	if pkg := pi.prog.byPath[path]; pkg != nil {
		return pkg.Types, nil
	}
	return pi.base.Import(path)
}

// typeCheck parses and checks one main-module package from source.
func typeCheck(prog *Program, imp types.Importer, lp listPkg) (*Package, error) {
	files := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(prog.Fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %v", name, err)
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
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(lp.ImportPath, prog.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", lp.ImportPath, err)
	}
	pkg := &Package{Path: lp.ImportPath, Dir: lp.Dir, Files: files, Types: tpkg, Info: info}
	for _, name := range append(lp.TestGoFiles, lp.XTestGoFiles...) {
		pkg.TestFiles = append(pkg.TestFiles, filepath.Join(lp.Dir, name))
	}
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				prog.decls[fn] = &FuncSource{Decl: fd, Pkg: pkg}
			}
		}
	}
	return pkg, nil
}
