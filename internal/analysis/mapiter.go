package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Mapiter flags order-sensitive writes inside `range` over a map. Go
// randomizes map iteration order, so a loop body that appends to an outer
// slice, accumulates into outer state, selects an argmax, or returns an
// element couples its result to that randomness — the exact bug class that
// would let two identical seeded MARS runs rank culprits differently.
//
// Flagged inside a map-range body (without //mars:mapiter-ok):
//
//   - any assignment, compound assignment, or ++/-- whose target is
//     declared outside the loop (appends included: out = append(out, x)),
//     except writes to the ranged map itself, which land in an unordered
//     container anyway;
//   - delete on a map other than the one being ranged;
//   - return statements, which select an arbitrary element.
//
// The fix is to iterate a sorted view (det.Keys / det.KeysFunc). Loops
// whose writes are provably order-independent — pure integer counting,
// building an unordered set — keep their direct iteration with a
// //mars:mapiter-ok directive naming the reason.
var Mapiter = &Analyzer{
	Name:      "mapiter",
	Doc:       "flag order-sensitive writes inside range-over-map loops",
	Directive: "mapiter-ok",
	RunModule: runMapiter,
}

func runMapiter(p *ModulePass) {
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok || !isMapRange(pkg, rs) {
					return true
				}
				// A directive on the range line suppresses the whole loop.
				if p.Suppressed(rs.Pos(), "mapiter-ok") {
					return true
				}
				mapRangeHazards(pkg, rs, p.Reportf)
				return true
			})
		}
	}
}

func isMapRange(pkg *Package, rs *ast.RangeStmt) bool {
	_, ok := mapCore(pkg.Info.TypeOf(rs.X))
	return ok
}

// mapCore returns the map type underlying t, seeing through type
// parameters whose constraint type set holds only maps with one common
// underlying type (the det.Keys `M ~map[K]V` shape); Underlying alone
// would return the constraint interface and miss generic map ranges.
func mapCore(t types.Type) (*types.Map, bool) {
	if t == nil {
		return nil, false
	}
	if m, ok := t.Underlying().(*types.Map); ok {
		return m, true
	}
	tp, ok := types.Unalias(t).(*types.TypeParam)
	if !ok {
		return nil, false
	}
	iface, ok := tp.Constraint().Underlying().(*types.Interface)
	if !ok {
		return nil, false
	}
	var core *types.Map
	for i := 0; i < iface.NumEmbeddeds(); i++ {
		terms := []types.Type{iface.EmbeddedType(i)}
		if u, ok := terms[0].(*types.Union); ok {
			terms = terms[:0]
			for j := 0; j < u.Len(); j++ {
				terms = append(terms, u.Term(j).Type())
			}
		}
		for _, term := range terms {
			m, ok := term.Underlying().(*types.Map)
			if !ok {
				return nil, false
			}
			if core == nil {
				core = m
			} else if !types.Identical(core, m) {
				return nil, false
			}
		}
	}
	return core, core != nil
}

// mapRangeHazards walks one map-range body and reports each
// order-sensitive hazard through report. Nested map-range statements are
// skipped: they are checked on their own, and one report per hazard is
// enough. Both mapiter (locally, everywhere) and detflow (transitively,
// inside the deterministic core) consume this.
func mapRangeHazards(pkg *Package, rs *ast.RangeStmt, report func(pos token.Pos, format string, args ...any)) {
	rangedRoot := rootIdentObj(pkg, rs.X)
	var walk func(n ast.Node, inFuncLit bool)
	walk = func(n ast.Node, inFuncLit bool) {
		if n == nil {
			return
		}
		switch x := n.(type) {
		case *ast.RangeStmt:
			if x != rs && isMapRange(pkg, x) {
				return // analyzed independently
			}
		case *ast.FuncLit:
			walkChildren(x.Body, func(c ast.Node) { walk(c, true) })
			return
		case *ast.ReturnStmt:
			if !inFuncLit {
				report(x.Pos(),
					"return inside `range` over map %s yields an arbitrary element; iterate det.Keys or collect-then-sort",
					exprString(pkg.Fset, rs.X))
			}
		case *ast.AssignStmt:
			if x.Tok != token.DEFINE {
				for _, lhs := range x.Lhs {
					checkWrite(pkg, rs, rangedRoot, lhs, report)
				}
			}
		case *ast.IncDecStmt:
			checkWrite(pkg, rs, rangedRoot, x.X, report)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "delete" && isBuiltinObj(pkg.Info.ObjectOf(id)) {
				// builtin delete: flag deletes from maps other than the
				// ranged one (deleting while ranging the same map is a
				// supported, order-independent idiom).
				if len(x.Args) == 2 {
					if obj := rootIdentObj(pkg, x.Args[0]); obj != nil && obj != rangedRoot && declaredOutside(obj, rs) {
						report(x.Pos(),
							"delete from %s inside `range` over map %s depends on iteration order",
							exprString(pkg.Fset, x.Args[0]), exprString(pkg.Fset, rs.X))
					}
				}
			}
		}
		walkChildren(n, func(c ast.Node) { walk(c, inFuncLit) })
	}
	walkChildren(rs.Body, func(c ast.Node) { walk(c, false) })
}

// checkWrite reports a write whose target lives outside the range loop.
func checkWrite(pkg *Package, rs *ast.RangeStmt, rangedRoot types.Object, lhs ast.Expr, report func(pos token.Pos, format string, args ...any)) {
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	// Writes into the ranged map itself land in an unordered container;
	// the result is independent of visit order.
	if idx, ok := lhs.(*ast.IndexExpr); ok {
		if obj := rootIdentObj(pkg, idx.X); obj != nil && obj == rangedRoot {
			return
		}
	}
	obj := rootIdentObj(pkg, lhs)
	if obj == nil || !declaredOutside(obj, rs) {
		return
	}
	report(lhs.Pos(),
		"write to %s inside `range` over map %s depends on iteration order; iterate det.Keys/det.KeysFunc or annotate //mars:mapiter-ok with why order cannot matter",
		exprString(pkg.Fset, lhs), exprString(pkg.Fset, rs.X))
}

// isBuiltinObj reports whether obj is a predeclared builtin function.
func isBuiltinObj(obj types.Object) bool {
	_, ok := obj.(*types.Builtin)
	return ok
}

// rootIdentObj resolves the base object of an lvalue-ish expression.
func rootIdentObj(pkg *Package, e ast.Expr) types.Object {
	id := rootIdent(e)
	if id == nil {
		return nil
	}
	return pkg.Info.ObjectOf(id)
}

// declaredOutside reports whether obj's declaration lies outside the range
// statement's span (package-level objects have no position inside it).
func declaredOutside(obj types.Object, rs *ast.RangeStmt) bool {
	pos := obj.Pos()
	return pos == token.NoPos || pos < rs.Pos() || pos > rs.End()
}

// walkChildren applies fn to each direct child node of n.
func walkChildren(n ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			fn(c)
		}
		return false
	})
}
