// Package poolrelease checks the discipline around pooled handles —
// the bug class PRs 2–5 fixed by hand. Three resources in the tree are
// pool-backed, and each has one ownership rule:
//
//   - netsim packets: Network.NewPacket acquires from a pool and
//     Network.Send transfers ownership to the network, which recycles
//     the packet after the delivery/drop callback returns. A packet
//     that is acquired but never handed off leaks its pool slot; a
//     packet touched after Send is a use-after-recycle.
//   - tcpsim flows: Flow.Release returns the flow's sender state to the
//     pool. Releasing the same handle twice in one straight-line block,
//     or releasing a loop-invariant handle on every iteration, puts one
//     record on the free list twice — the historical double-release.
//     Any use lexically after the Release in the same block is a
//     use-after-release.
//   - sim events: kernel event records are pooled and generation-
//     tagged, so a stale handle is inert rather than unsafe — which is
//     exactly why retention bugs are silent: a handle parked in a map,
//     slice or channel outlives its generation and later Cancels
//     nothing. Keeping the pending handle in a struct field (the
//     tcpsim idiom) is the supported pattern and is not flagged.
//
// The analysis is deliberately lexical and intra-function: it reasons
// about straight-line statement order inside one function (including
// its closures) and does not chase handles across calls or model
// branch interleavings. That keeps every diagnostic cheap to verify by
// eye — the property that made the hand-fixed bugs findable in review.
package poolrelease

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"

	"repro/internal/analysis"
)

// New builds the poolrelease analyzer.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "poolrelease",
		Doc:  "pooled packets, flows and event handles must be released exactly once and never used after",
		Run:  run,
	}
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPackets(pass, fd)
			checkReleases(pass, fd.Body)
			checkEventRetention(pass, fd.Body)
		}
	}
	return nil
}

// --------------------------------------------------------- packets --

// checkPackets enforces the NewPacket→Send ownership rule inside one
// function. Methods of the pool-owning Network type itself are exempt:
// they are the pool implementation.
func checkPackets(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	if recvNamed(pass, fd) == "Network" {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := analysis.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !isPoolMethod(info, call, "NewPacket", "Network") {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj != nil {
			checkOnePacket(pass, fd.Body, as, obj)
		}
		return true
	})
}

// checkOnePacket classifies every use of one acquired packet variable
// relative to the Send call that consumes it.
func checkOnePacket(pass *analysis.Pass, body *ast.BlockStmt, acq *ast.AssignStmt, obj types.Object) {
	info := pass.Pkg.Info
	var sendEnd token.Pos // end of the consuming Send call, if any
	consumed := false     // passed to any call / returned / stored: ownership left

	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, a := range call.Args {
			id, ok := analysis.Unparen(a).(*ast.Ident)
			if !ok || info.Uses[id] != obj {
				continue
			}
			consumed = true
			if sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr); ok &&
				sel.Sel.Name == "Send" && sendEnd == 0 && call.Pos() > acq.Pos() {
				sendEnd = call.End()
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if id, ok := analysis.Unparen(r).(*ast.Ident); ok && info.Uses[id] == obj {
					consumed = true
				}
			}
		case *ast.AssignStmt:
			for _, r := range x.Rhs {
				if id, ok := analysis.Unparen(r).(*ast.Ident); ok && info.Uses[id] == obj {
					consumed = true // stored somewhere; ownership intent unclear but not a leak
				}
			}
		case *ast.Ident:
			if info.Uses[x] != obj || sendEnd == 0 || x.Pos() <= sendEnd {
				return true
			}
			pass.Reportf(x.Pos(),
				"packet %q used after Send: the network recycles pooled packets once the delivery callback returns, so this reads a reused record", obj.Name())
		}
		return true
	})

	if !consumed {
		pass.Reportf(acq.Pos(),
			"packet %q acquired from the pool but never sent, returned or handed off: its pool slot leaks", obj.Name())
	}
}

// -------------------------------------------------------- releases --

// checkReleases enforces single-release and no-use-after-release for
// any handle with a niladic Release method, per straight-line block.
func checkReleases(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info

	var walkBlock func(blk *ast.BlockStmt, loops []*loopCtx)
	walkBlock = func(blk *ast.BlockStmt, loops []*loopCtx) {
		relAt := map[types.Object]token.Pos{}
		for _, stmt := range blk.List {
			// Reassignment resets the handle: it names a fresh record.
			if as, ok := stmt.(*ast.AssignStmt); ok {
				for _, lhs := range as.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if obj := info.Uses[id]; obj != nil {
							delete(relAt, obj)
						}
						if obj := info.Defs[id]; obj != nil {
							delete(relAt, obj)
						}
					}
				}
			}

			// Uses after a release recorded earlier in this block.
			ast.Inspect(stmt, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := info.Uses[id]
				pos, was := relAt[obj]
				if !was || id.Pos() <= pos {
					return true
				}
				if isReleaseCallOn(info, stmt, obj) != nil {
					return true // the double-release diagnostic below covers it
				}
				pass.Reportf(id.Pos(),
					"%q used after Release: the handle's record is back in the pool and may already be reissued", obj.Name())
				return false
			})

			// Release calls directly in this block's statement list.
			if call := releaseCall(info, stmt); call != nil {
				obj := releaseTarget(info, call)
				if obj == nil {
					continue
				}
				if _, twice := relAt[obj]; twice {
					pass.Reportf(call.Pos(),
						"%q released twice in one block: the second Release puts the same record on the free list again", obj.Name())
				}
				relAt[obj] = call.Pos()
				// Releasing a handle that predates an enclosing loop
				// releases the same record every iteration.
				for _, lc := range loops {
					if obj.Pos() < lc.pos || obj.Pos() > lc.end {
						pass.Reportf(call.Pos(),
							"%q released inside a loop but declared outside it: every iteration re-releases the same record", obj.Name())
						break
					}
				}
			}

			// Recurse into nested blocks with loop context.
			switch s := stmt.(type) {
			case *ast.BlockStmt:
				walkBlock(s, loops)
			case *ast.IfStmt:
				walkBlock(s.Body, loops)
				if els, ok := s.Else.(*ast.BlockStmt); ok {
					walkBlock(els, loops)
				}
			case *ast.ForStmt:
				walkBlock(s.Body, append(loops, &loopCtx{s.Pos(), s.End()}))
			case *ast.RangeStmt:
				walkBlock(s.Body, append(loops, &loopCtx{s.Pos(), s.End()}))
			case *ast.SwitchStmt:
				for _, c := range s.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok {
						walkBlock(&ast.BlockStmt{List: cc.Body}, loops)
					}
				}
			}
		}
	}
	walkBlock(body, nil)
}

type loopCtx struct{ pos, end token.Pos }

// releaseCall extracts a direct x.Release() expression statement, or
// nil. Deferred releases are deliberately skipped: `defer h.Release()`
// is the cleanup idiom for early-return paths and pairing it with the
// statement-order model would only produce noise.
func releaseCall(info *types.Info, stmt ast.Stmt) *ast.CallExpr {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return nil
	}
	call, ok := analysis.Unparen(es.X).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return nil
	}
	sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" {
		return nil
	}
	return call
}

// releaseTarget resolves the identifier a Release call operates on.
func releaseTarget(info *types.Info, call *ast.CallExpr) types.Object {
	sel := analysis.Unparen(call.Fun).(*ast.SelectorExpr)
	id, ok := analysis.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	return info.Uses[id]
}

// isReleaseCallOn reports the Release call in stmt targeting obj, if
// stmt is exactly that call.
func isReleaseCallOn(info *types.Info, stmt ast.Stmt, obj types.Object) *ast.CallExpr {
	call := releaseCall(info, stmt)
	if call != nil && releaseTarget(info, call) == obj {
		return call
	}
	return nil
}

// ---------------------------------------------------- event handles --

// checkEventRetention flags sim.Event handles parked in maps, slices or
// channels. A struct-field pending-event slot (reassigned as the event
// fires or is cancelled) is the supported pattern and not flagged.
func checkEventRetention(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				if _, ok := analysis.Unparen(lhs).(*ast.IndexExpr); !ok {
					continue
				}
				if i < len(x.Rhs) && isEventValue(info, x.Rhs[i]) {
					pass.Reportf(x.Rhs[i].Pos(),
						"sim.Event handle stored into a container: the pooled record is reissued under a new generation and the stored handle silently goes inert")
				}
			}
		case *ast.CallExpr:
			if id, ok := analysis.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" {
				for _, a := range x.Args[1:] {
					if isEventValue(info, a) {
						pass.Reportf(a.Pos(),
							"sim.Event handle appended to a slice: the pooled record is reissued under a new generation and the stored handle silently goes inert")
					}
				}
			}
		case *ast.SendStmt:
			if isEventValue(info, x.Value) {
				pass.Reportf(x.Value.Pos(),
					"sim.Event handle sent on a channel: the pooled record is reissued under a new generation and the received handle silently goes inert")
			}
		}
		return true
	})
}

// isEventValue reports whether e's type is the kernel's Event handle.
func isEventValue(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[analysis.Unparen(e)]
	if !ok {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Event" && obj.Pkg() != nil && path.Base(obj.Pkg().Path()) == "sim"
}

// ----------------------------------------------------------- helpers --

// isPoolMethod reports whether call invokes a method of the given name
// on a named type.
func isPoolMethod(info *types.Info, call *ast.CallExpr, method, recvType string) bool {
	sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	s := info.Selections[sel]
	if s == nil {
		return false
	}
	t := s.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == recvType
}

// recvNamed returns the name of fd's receiver type, or "".
func recvNamed(pass *analysis.Pass, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	tv, ok := pass.Pkg.Info.Types[fd.Recv.List[0].Type]
	if !ok {
		return ""
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
