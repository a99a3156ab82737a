// Package determinism flags nondeterminism sources in simulation and
// report code. The execution plane's acceptance bar is byte-identical
// reports at any shard and worker count, which dies by a thousand cuts:
// a wall-clock read folded into a result row, an unseeded global RNG, a
// map iteration whose order leaks into merged output. The analyzer
// checks three patterns inside the simulation/report domain packages:
//
//  1. time.Now — wall-clock reads. Engine timing that is deliberately
//     excluded from report bytes carries a //gtwvet:ignore directive
//     explaining exactly that.
//  2. Package-level math/rand (and math/rand/v2) calls — rand.Intn et
//     al. draw from the process-global source; every simulation RNG
//     must be an explicitly seeded *rand.Rand (rand.New/NewSource and
//     friends are constructors, not draws, and stay legal).
//  3. Ranging over a map while appending to an outer slice or writing
//     to an outer builder/buffer/writer/hash — iteration order flows
//     into output bytes. The canonical collect-then-sort pattern is
//     recognised: if the collected slice is later passed to a sort
//     call in the same function, the range is clean.
//
// The check is domain-restricted (see domainPkgs): the dist/persist
// planes legitimately deal in lease clocks.
package determinism

import (
	"go/ast"
	"go/types"
	"path"
	"strings"

	"repro/internal/analysis"
)

// domainPkgs are the final import-path elements of packages whose code
// feeds simulated results or report bytes.
var domainPkgs = map[string]bool{
	"sim": true, "netsim": true, "tcpsim": true, "atm": true,
	"hippi": true, "machine": true, "bwin": true, "core": true,
	"video": true, "viz": true, "volume": true, "mri": true,
	"meg": true, "climate": true, "groundwater": true, "linalg": true,
	"fire": true, "cocolib": true, "mpi": true, "mpitrace": true,
}

// randConstructors are math/rand selectors that build or seed explicit
// generators rather than drawing from the global one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// New builds the determinism analyzer.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "determinism",
		Doc:  "simulation and report code must not read wall clocks, global RNGs, or map order",
		Run:  run,
	}
}

func run(pass *analysis.Pass) error {
	if !domainPkgs[path.Base(pass.Pkg.Path)] {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, x)
			case *ast.FuncDecl:
				if x.Body != nil {
					checkMapRanges(pass, x.Body)
				}
			}
			return true
		})
	}
	return nil
}

// checkCall flags time.Now and global math/rand draws.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := analysis.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := pass.Pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	switch pkgName.Imported().Path() {
	case "time":
		if sel.Sel.Name == "Now" {
			pass.Reportf(call.Pos(),
				"time.Now in simulation/report code: wall-clock values differ across runs and shards; derive timing from the simulated clock or keep it out of report bytes")
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[sel.Sel.Name] {
			pass.Reportf(call.Pos(),
				"global math/rand draw (rand.%s): the process-wide source makes runs irreproducible; use an explicitly seeded *rand.Rand", sel.Sel.Name)
		}
	}
}

// checkMapRanges scans one function body for map-range statements whose
// iteration order escapes into ordered output.
func checkMapRanges(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkOneMapRange(pass, body, rng)
		return true
	})
}

// checkOneMapRange flags order-dependent sinks inside a single map
// range. A sink is order-dependent when it produces a sequence — an
// append to a slice declared outside the loop, or a write to an outside
// builder/buffer/writer/hash. Writes into other maps or scalar
// accumulation (sums, counters) are order-independent and ignored.
func checkOneMapRange(pass *analysis.Pass, fn *ast.BlockStmt, rng *ast.RangeStmt) {
	info := pass.Pkg.Info
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}

		// append(outer, ...) assigned back to the same outer slice.
		if id, ok := analysis.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
			if len(call.Args) == 0 {
				return true
			}
			target := analysis.RootIdent(call.Args[0])
			if target == nil {
				return true
			}
			obj := info.Uses[target]
			if obj == nil || !declaredOutside(obj, rng) {
				return true
			}
			if sortedLater(pass, fn, rng, obj) {
				return true
			}
			pass.Reportf(call.Pos(),
				"append to %q inside a map range: iteration order flows into the slice; collect and sort, or iterate sorted keys", obj.Name())
			return true
		}

		// method write on an outer builder/buffer/hash, or fmt.Fprint*
		// to an outer writer.
		sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if recv := analysis.RootIdent(sel.X); recv != nil {
			if obj := info.Uses[recv]; obj != nil && declaredOutside(obj, rng) &&
				isOrderedWrite(sel.Sel.Name) && isStreamType(obj.Type()) {
				pass.Reportf(call.Pos(),
					"%s.%s inside a map range: iteration order flows into the output bytes; iterate sorted keys instead", recv.Name, sel.Sel.Name)
				return true
			}
			// fmt.Fprint*(w, ...) with an outer writer argument.
			if pkgName, ok := info.Uses[recv].(*types.PkgName); ok &&
				pkgName.Imported().Path() == "fmt" && strings.HasPrefix(sel.Sel.Name, "Fprint") &&
				len(call.Args) > 0 {
				if w := analysis.RootIdent(call.Args[0]); w != nil {
					if obj := info.Uses[w]; obj != nil && declaredOutside(obj, rng) {
						pass.Reportf(call.Pos(),
							"fmt.%s into %q inside a map range: iteration order flows into the output bytes; iterate sorted keys instead", sel.Sel.Name, w.Name)
					}
				}
			}
		}
		return true
	})
}

// orderedWriteMethods are methods that append to a byte/string stream.
var orderedWriteMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "Encode": true,
}

func isOrderedWrite(name string) bool { return orderedWriteMethods[name] }

// isStreamType reports whether t is a stream accumulator: a
// strings.Builder, bytes.Buffer, hash.Hash implementation, encoder, or
// io.Writer-shaped named type.
func isStreamType(t types.Type) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "strings", "bytes", "bufio", "encoding/json", "hash":
		return true
	}
	// Concrete hash implementations (crypto/sha256 etc.) and anything
	// with a Write([]byte) (int, error) method.
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == "Write" {
			return true
		}
	}
	return false
}

// declaredOutside reports whether obj is declared outside the range
// statement (so writes to it survive the loop).
func declaredOutside(obj types.Object, rng *ast.RangeStmt) bool {
	return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
}

// sortedLater recognises the collect-then-sort idiom: after the range,
// the collected slice is passed to a sort.* or slices.* call in the
// same function, which erases the map's iteration order.
func sortedLater(pass *analysis.Pass, fn *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	info := pass.Pkg.Info
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := analysis.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return true
		}
		pkgName, ok := info.Uses[pkgID].(*types.PkgName)
		if !ok {
			return true
		}
		switch pkgName.Imported().Path() {
		case "sort", "slices":
		default:
			return true
		}
		for _, a := range call.Args {
			if root := analysis.RootIdent(a); root != nil && info.Uses[root] == obj {
				found = true
			}
		}
		return true
	})
	return found
}
