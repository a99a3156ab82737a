// Package pointdeps derives, for every registered scenario, the set of
// cross-machine Options fields its grid points actually read, and
// checks the sweep's PointDeps(...) declaration against it.
//
// PointDeps narrows a grid point's content address in the
// coordinator's point store. The two failure modes are asymmetric:
//
//   - An under-declared field (the points read it, the declaration
//     omits it) is a correctness bug — two jobs differing only in that
//     field produce the same point key, so one silently receives the
//     other's cached results.
//   - An over-declared field (declared but never read) only loses
//     reuse — jobs that differ in an irrelevant option stop sharing
//     finished points.
//
// The derivation walks the point function interprocedurally: a read is
// a selector on the Options parameter (or any alias of it) naming one
// of the wire fields, in the function itself or in any main-module
// function the parameter is passed to. Sweeps that run on a shard-built
// testbed additionally inherit the fields the testbed constructor reads
// (derived from core's Sweep.NewShardTestbed, not hard-coded). If the
// Options value escapes into code the loader cannot see, the deriver
// goes conservative: every field is assumed read.
package pointdeps

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Config points the analyzer at the package that declares Options,
// NewSweep and NewScenario. Fixtures substitute their own mini core.
type Config struct {
	// CorePath is the import path of the core package
	// (default "repro/internal/core").
	CorePath string
}

// defaultCorePath is the real repository's core package.
const defaultCorePath = "repro/internal/core"

// optionFields maps Options struct fields to their OptField wire
// tokens, mirroring the constants in core/sweep.go. Only these fields
// participate in point content addresses; Workers/Shards and the
// dispatcher never cross the wire.
var optionFields = map[string]string{
	"WAN":        "wan",
	"Extensions": "ext",
	"PEs":        "pes",
	"Frames":     "frames",
	"Flows":      "flows",
}

// depOrder is the canonical presentation order of derived sets.
var depOrder = []string{"wan", "ext", "pes", "frames", "flows"}

// New builds the pointdeps analyzer.
func New(cfg Config) *analysis.Analyzer {
	if cfg.CorePath == "" {
		cfg.CorePath = defaultCorePath
	}
	return &analysis.Analyzer{
		Name: "pointdeps",
		Doc:  "PointDeps declarations must match the Options fields grid points actually read",
		Run: func(pass *analysis.Pass) error {
			regs, err := scanPackage(pass.Prog, pass.Pkg, cfg)
			if err != nil {
				return err
			}
			for _, r := range regs {
				diagnose(pass, r)
			}
			return nil
		},
	}
}

// Entry is one audited registration: declared vs. derived dependencies.
type Entry struct {
	// Name is the registered scenario name.
	Name string `json:"name"`
	// Kind is "sweep" (native grid) or "scenario" (wrapped one-point
	// plan, keyed on every field because it cannot declare).
	Kind string `json:"kind"`
	// Declared is the PointDeps declaration in canonical order; nil
	// means no declaration (the conservative every-field default).
	Declared []string `json:"declared"`
	// Derived is the analyzer's computed read set in canonical order.
	Derived []string `json:"derived"`
	// ShardTestbed reports whether points run on a shard-built testbed
	// (false after NoShardTestbed, and for scenarios that ignore tb).
	ShardTestbed bool `json:"shard_testbed"`
	// Escaped reports that the Options value reached code outside the
	// module, forcing the conservative every-field derivation.
	Escaped bool `json:"escaped,omitempty"`
	// Pos is the registration's source position.
	Pos string `json:"pos"`
}

// registration is one scanned Register/MustRegister chain plus its
// derivation, before presentation.
type registration struct {
	entry       Entry
	declared    map[string]bool
	hasDecl     bool
	derived     map[string]bool
	declPos     token.Pos // PointDeps call (or base call) position
	escapeNotes []string
}

// Audit scans every main-module package for scenario registrations and
// returns their declared-vs-derived entries sorted by name — the data
// behind `gtwvet -pointdeps-report` and the pinned audit test in
// internal/core.
func Audit(prog *analysis.Program, cfg Config) ([]Entry, error) {
	if cfg.CorePath == "" {
		cfg.CorePath = defaultCorePath
	}
	var out []Entry
	for _, pkg := range prog.Pkgs {
		regs, err := scanPackage(prog, pkg, cfg)
		if err != nil {
			return nil, err
		}
		for _, r := range regs {
			out = append(out, r.entry)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// diagnose reports declared-vs-derived mismatches for one registration.
// Only sweeps with an explicit PointDeps declaration are diagnosed: an
// undeclared sweep keys on every field, which is always correct, and a
// wrapped scenario has nothing to declare.
func diagnose(pass *analysis.Pass, r *registration) {
	if !r.hasDecl {
		return
	}
	var missing, extra []string
	for _, dep := range depOrder {
		if r.derived[dep] && !r.declared[dep] {
			missing = append(missing, dep)
		}
		if r.declared[dep] && !r.derived[dep] {
			extra = append(extra, dep)
		}
	}
	if len(missing) > 0 {
		note := ""
		if r.entry.Escaped {
			note = fmt.Sprintf(" (conservative: options escape analysis at %s)", strings.Join(r.escapeNotes, "; "))
		}
		pass.Reportf(r.declPos,
			"sweep %q: PointDeps omits fields its points read: %s — an under-declaration serves stale cached points across jobs%s",
			r.entry.Name, strings.Join(missing, ", "), note)
	}
	if len(extra) > 0 {
		pass.Reportf(r.declPos,
			"sweep %q: PointDeps declares fields its points never read: %s — over-declaration loses point-store reuse",
			r.entry.Name, strings.Join(extra, ", "))
	}
}

// ----------------------------------------------------------- scanning --

// scanPackage finds every Register/MustRegister call in pkg whose
// argument is a NewSweep/NewScenario construction chain and derives its
// dependencies.
func scanPackage(prog *analysis.Program, pkg *analysis.Package, cfg Config) ([]*registration, error) {
	core := prog.Package(cfg.CorePath)
	if core == nil {
		return nil, nil // core not in this load; nothing to check
	}
	optType := lookupType(core, "Options")
	if optType == nil {
		return nil, fmt.Errorf("pointdeps: %s has no Options type", cfg.CorePath)
	}
	tbDeps, tbErr := testbedDeps(prog, core, optType)
	if tbErr != nil {
		return nil, tbErr
	}

	var regs []*registration
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			callee := calleeFunc(pkg, call)
			if callee == nil || (callee.Name() != "Register" && callee.Name() != "MustRegister") {
				return true
			}
			r, err := scanChain(prog, pkg, cfg, optType, tbDeps, call.Args[0])
			if err == nil && r != nil {
				regs = append(regs, r)
			}
			return true
		})
	}
	return regs, nil
}

// scanChain decomposes `NewSweep(...).NoShardTestbed().WirePoint(x).
// PointDeps(...)`-style chains (and plain NewScenario calls) into a
// registration. A nil, nil return means the argument is not a
// recognisable construction chain (e.g. a variable).
func scanChain(prog *analysis.Program, pkg *analysis.Package, cfg Config,
	optType types.Type, tbDeps map[string]bool, arg ast.Expr) (*registration, error) {

	noShardTestbed := false
	var declArgs []ast.Expr
	hasDecl := false
	var declPos token.Pos

	cur, ok := analysis.Unparen(arg).(*ast.CallExpr)
	if !ok {
		return nil, nil
	}
	var base *ast.CallExpr
	for {
		fn := calleeFunc(pkg, cur)
		if fn == nil {
			return nil, nil
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == cfg.CorePath &&
			(fn.Name() == "NewSweep" || fn.Name() == "NewScenario") {
			base = cur
			break
		}
		// A chained builder method: record it and descend into its
		// receiver, which must itself be a call.
		sel, ok := cur.Fun.(*ast.SelectorExpr)
		if !ok {
			return nil, nil
		}
		switch fn.Name() {
		case "PointDeps":
			if !hasDecl { // outermost declaration wins
				hasDecl = true
				declArgs = cur.Args
				declPos = sel.Sel.Pos()
			}
		case "NoShardTestbed":
			noShardTestbed = true
		}
		recv, ok := analysis.Unparen(sel.X).(*ast.CallExpr)
		if !ok {
			return nil, nil
		}
		cur = recv
	}

	baseFn := calleeFunc(pkg, base)
	isSweep := baseFn.Name() == "NewSweep"
	name := constString(pkg, base.Args[0])
	if name == "" {
		return nil, nil
	}
	var runExpr ast.Expr
	if isSweep {
		if len(base.Args) < 5 {
			return nil, nil
		}
		runExpr = base.Args[3]
	} else {
		if len(base.Args) < 3 {
			return nil, nil
		}
		runExpr = base.Args[2]
	}

	d := &deriver{prog: prog, optType: optType, deps: make(map[string]bool),
		visited: make(map[visitKey]bool)}
	// Options parameter position: NewSweep's PointFunc is
	// (ctx, tb, opts, pt); NewScenario's run is (ctx, tb, opts).
	tbUsed := d.deriveRun(pkg, runExpr, 2, 1)

	r := &registration{
		derived: d.deps, hasDecl: hasDecl, declPos: declPos,
		declared: make(map[string]bool), escapeNotes: d.escapeNotes,
	}
	if !hasDecl {
		r.declPos = base.Pos()
	}
	for _, a := range declArgs {
		if v := constString(pkg, a); v != "" {
			r.declared[v] = true
		}
	}

	shardTestbed := isSweep && !noShardTestbed
	if shardTestbed && tbUsed {
		// Points run on a testbed the shard builds from Options; the
		// constructor's own reads are part of every point's key.
		for dep := range tbDeps {
			d.deps[dep] = true
		}
	}
	if !isSweep && tbUsed {
		// A wrapped scenario's single point runs on an engine-built
		// testbed constructed the same way.
		for dep := range tbDeps {
			d.deps[dep] = true
		}
	}

	kind := "scenario"
	if isSweep {
		kind = "sweep"
	}
	r.entry = Entry{
		Name: name, Kind: kind,
		Derived:      canonical(d.deps),
		ShardTestbed: shardTestbed && tbUsed,
		Escaped:      d.escaped,
		Pos:          prog.Fset.Position(base.Pos()).String(),
	}
	if hasDecl {
		r.entry.Declared = canonical(r.declared)
	}
	return r, nil
}

// testbedDeps derives the Options fields the shard-testbed construction
// path reads, from core's own Sweep.NewShardTestbed source — so a
// future edit to the constructor cannot silently widen real
// dependencies past declared ones.
func testbedDeps(prog *analysis.Program, core *analysis.Package, optType types.Type) (map[string]bool, error) {
	for fn, src := range allMethods(prog, core, "NewShardTestbed") {
		d := &deriver{prog: prog, optType: optType, deps: make(map[string]bool),
			visited: make(map[visitKey]bool)}
		d.walkFuncDecl(src, fn, 0)
		return d.deps, nil
	}
	// Fixture cores without the method: shard testbeds contribute
	// nothing, which keeps small fixtures small.
	return map[string]bool{}, nil
}

// allMethods yields (fn, source) for every method of the given name
// declared in pkg.
func allMethods(prog *analysis.Program, pkg *analysis.Package, name string) map[*types.Func]*analysis.FuncSource {
	out := make(map[*types.Func]*analysis.FuncSource)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != name {
				continue
			}
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				out[fn] = &analysis.FuncSource{Decl: fd, Pkg: pkg}
			}
		}
	}
	return out
}

// ---------------------------------------------------------- derivation --

// visitKey guards interprocedural recursion: one visit per
// (function, options-parameter) pair.
type visitKey struct {
	fn    *types.Func
	param int
}

// deriver accumulates the Options fields read along one point path.
type deriver struct {
	prog        *analysis.Program
	optType     types.Type
	deps        map[string]bool
	escaped     bool
	escapeNotes []string
	visited     map[visitKey]bool
}

// maxDepth bounds interprocedural recursion; point paths in the tree
// are at most a few calls deep, and a runaway recursion means the
// derivation is effectively global anyway.
const maxDepth = 12

// deriveRun walks a run-function expression (func literal or reference)
// whose parameter optIdx is the Options value, and reports whether the
// testbed parameter tbIdx is used at all.
func (d *deriver) deriveRun(pkg *analysis.Package, runExpr ast.Expr, optIdx, tbIdx int) (tbUsed bool) {
	var body *ast.BlockStmt
	var params []*types.Var
	switch e := analysis.Unparen(runExpr).(type) {
	case *ast.FuncLit:
		body = e.Body
		params = litParams(pkg, e)
	default:
		if fn := resolveFuncExpr(pkg, runExpr); fn != nil {
			if src := d.prog.FuncDecl(fn); src != nil {
				body = src.Decl.Body
				params = declParams(src)
				pkg = src.Pkg
			}
		}
	}
	if body == nil || len(params) <= optIdx {
		d.escape("unresolvable run function")
		return true
	}
	d.walk(pkg, body, map[types.Object]bool{params[optIdx]: true}, 0)
	if tbIdx < len(params) && params[tbIdx] != nil {
		tbUsed = objUsed(pkg, body, params[tbIdx])
	}
	return tbUsed
}

// walkFuncDecl derives the reads of fn's Options parameter at position
// param.
func (d *deriver) walkFuncDecl(src *analysis.FuncSource, fn *types.Func, param int) {
	key := visitKey{fn, param}
	if d.visited[key] || src.Decl.Body == nil {
		return
	}
	d.visited[key] = true
	params := declParams(src)
	if param >= len(params) || params[param] == nil {
		return
	}
	d.walk(src.Pkg, src.Decl.Body, map[types.Object]bool{params[param]: true}, 0)
}

// walk scans body for reads of the tracked Options objects: direct
// field selectors, aliases, and calls that forward the value. Any
// other use of a tracked object is an escape, which degrades the
// derivation to "every field".
func (d *deriver) walk(pkg *analysis.Package, body ast.Node, tracked map[types.Object]bool, depth int) {
	if depth > maxDepth {
		d.escape("recursion limit")
		return
	}
	handled := make(map[*ast.Ident]bool)

	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := analysis.Unparen(x.X).(*ast.Ident); ok && tracked[pkg.Info.Uses[id]] {
				handled[id] = true
				if dep, ok := optionFields[x.Sel.Name]; ok {
					d.deps[dep] = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				id, ok := analysis.Unparen(rhs).(*ast.Ident)
				if !ok || !tracked[pkg.Info.Uses[id]] || i >= len(x.Lhs) {
					continue
				}
				handled[id] = true
				if lhs, ok := x.Lhs[i].(*ast.Ident); ok {
					if obj := pkg.Info.Defs[lhs]; obj != nil {
						tracked[obj] = true // alias via :=
					} else if obj := pkg.Info.Uses[lhs]; obj != nil {
						tracked[obj] = true // alias via =
					}
				} else {
					d.escape(d.prog.Fset.Position(rhs.Pos()).String())
				}
			}
		case *ast.CallExpr:
			for argIdx, a := range x.Args {
				id := trackedArg(pkg, tracked, a)
				if id == nil {
					continue
				}
				handled[id] = true
				d.forward(pkg, x, argIdx, depth)
			}
		}
		return true
	})

	// Any remaining mention of a tracked object is a use the deriver
	// does not model (stored whole into a struct, returned, sent on a
	// channel, captured address …) — go conservative.
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || handled[id] {
			return true
		}
		if tracked[pkg.Info.Uses[id]] {
			d.escape(d.prog.Fset.Position(id.Pos()).String())
		}
		return true
	})
}

// forward recurses into the callee receiving a tracked Options value at
// argument position argIdx.
func (d *deriver) forward(pkg *analysis.Package, call *ast.CallExpr, argIdx int, depth int) {
	fn := calleeFunc(pkg, call)
	if fn == nil {
		d.escape(d.prog.Fset.Position(call.Pos()).String())
		return
	}
	src := d.prog.FuncDecl(fn)
	if src == nil || src.Decl.Body == nil {
		d.escape(fmt.Sprintf("%s calls %s", d.prog.Fset.Position(call.Pos()), fn.FullName()))
		return
	}
	key := visitKey{fn, argIdx}
	if d.visited[key] {
		return
	}
	d.visited[key] = true
	params := declParams(src)
	if argIdx >= len(params) || params[argIdx] == nil {
		d.escape(fmt.Sprintf("variadic or mismatched call at %s", d.prog.Fset.Position(call.Pos())))
		return
	}
	d.walk(src.Pkg, src.Decl.Body, map[types.Object]bool{params[argIdx]: true}, depth+1)
}

// escape records why the deriver went conservative and marks every
// field as read.
func (d *deriver) escape(note string) {
	d.escaped = true
	if len(d.escapeNotes) < 4 {
		d.escapeNotes = append(d.escapeNotes, note)
	}
	for _, dep := range optionFields {
		d.deps[dep] = true
	}
}

// ------------------------------------------------------------- helpers --

// calleeFunc resolves a call's callee to its function object (plain
// call, package-qualified call, or method call).
func calleeFunc(pkg *analysis.Package, call *ast.CallExpr) *types.Func {
	switch fun := analysis.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel := pkg.Info.Selections[fun]; sel != nil {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// resolveFuncExpr resolves an identifier or selector naming a function.
func resolveFuncExpr(pkg *analysis.Package, e ast.Expr) *types.Func {
	switch x := analysis.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[x].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[x.Sel].(*types.Func)
		return fn
	}
	return nil
}

// trackedArg reports the tracked identifier passed (directly or by
// address) as this argument, or nil.
func trackedArg(pkg *analysis.Package, tracked map[types.Object]bool, a ast.Expr) *ast.Ident {
	e := analysis.Unparen(a)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = analysis.Unparen(u.X)
	}
	if id, ok := e.(*ast.Ident); ok && tracked[pkg.Info.Uses[id]] {
		return id
	}
	return nil
}

// litParams flattens a func literal's parameter objects in order.
func litParams(pkg *analysis.Package, lit *ast.FuncLit) []*types.Var {
	var out []*types.Var
	for _, field := range lit.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range field.Names {
			v, _ := pkg.Info.Defs[name].(*types.Var)
			out = append(out, v)
		}
	}
	return out
}

// declParams flattens a declared function's parameter objects in order.
func declParams(src *analysis.FuncSource) []*types.Var {
	var out []*types.Var
	for _, field := range src.Decl.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range field.Names {
			v, _ := src.Pkg.Info.Defs[name].(*types.Var)
			out = append(out, v)
		}
	}
	return out
}

// objUsed reports whether obj is mentioned anywhere in body.
func objUsed(pkg *analysis.Package, body ast.Node, obj types.Object) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pkg.Info.Uses[id] == obj {
			used = true
		}
		return !used
	})
	return used
}

// constString evaluates a constant string expression, or returns "".
func constString(pkg *analysis.Package, e ast.Expr) string {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return ""
	}
	return constant.StringVal(tv.Value)
}

// canonical renders a dep set in wan/ext/pes/frames/flows order.
func canonical(set map[string]bool) []string {
	out := []string{}
	for _, dep := range depOrder {
		if set[dep] {
			out = append(out, dep)
		}
	}
	return out
}

// lookupType resolves a named type declared in pkg.
func lookupType(pkg *analysis.Package, name string) types.Type {
	obj := pkg.Types.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	return obj.Type()
}
