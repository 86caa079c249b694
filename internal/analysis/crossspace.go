package analysis

import (
	"go/ast"
	"go/types"
)

// CrossSpace enforces the guard PR 5 added after a real panic: any exported
// method that takes a pipeline.Instance and can reach per-space indexes —
// i.e. its receiver holds a `space *pipeline.Space` field, directly or
// through one same-package struct field (a view over a Store) — must
// compare the instance's Space() against that field before indexing.
// Instances carry interned codes that are only meaningful within one space,
// so an unguarded cross-space ref reads (or corrupts) another space's
// buckets.
var CrossSpace = &Analyzer{
	Name: "crossspace",
	Doc:  "exported methods taking a pipeline.Instance must guard ref.Space() != st.space",
	Run:  runCrossSpace,
}

func runCrossSpace(pass *Pass) error {
	info := pass.Pkg.Info
	eachFuncDecl(pass.Pkg, func(fn *ast.FuncDecl) {
		if !fn.Name.IsExported() {
			return
		}
		recv := recvNamed(info, fn)
		if recv == nil || !holdsSpaceField(recv, true) {
			return
		}
		for _, param := range instanceParams(info, fn) {
			if !spaceGuarded(info, fn, param) {
				pass.Reportf(fn.Name.Pos(),
					"exported method %s takes pipeline.Instance %s but never compares %s.Space() against the receiver's space field",
					fn.Name.Name, param.Name(), param.Name())
			}
		}
	})
	return nil
}

// holdsSpaceField reports whether the defined struct type has a field
// space *pipeline.Space, or (when indirect is true) a field whose
// same-package struct type does — one level deep, which is how a view
// type reaches its Store's space. The one-level, same-package limit keeps
// consumers in other packages (e.g. the executor, which owns no index)
// out of scope.
func holdsSpaceField(n *types.Named, indirect bool) bool {
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == "space" && isPkgType(f.Type(), "pipeline", "Space") {
			return true
		}
		if !indirect {
			continue
		}
		if inner := namedOf(f.Type()); inner != nil &&
			inner.Obj().Pkg() == n.Obj().Pkg() && holdsSpaceField(inner, false) {
			return true
		}
	}
	return false
}

// instanceParams returns the parameters of fn typed pipeline.Instance or
// *pipeline.Instance. Slice parameters are out of scope: their guards live
// inside per-element validation, which this analyzer cannot attribute to a
// parameter object.
func instanceParams(info *types.Info, fn *ast.FuncDecl) []*types.Var {
	var params []*types.Var
	for _, field := range fn.Type.Params.List {
		if !isPkgType(info.TypeOf(field.Type), "pipeline", "Instance") {
			continue
		}
		for _, name := range field.Names {
			if obj, ok := info.Defs[name].(*types.Var); ok {
				params = append(params, obj)
			}
		}
	}
	return params
}

// spaceGuarded reports whether fn's body contains a comparison with the
// parameter's space on one side — `p.Space()`, or the in-package field
// form `p.space` that pipeline's own methods use — and a selector ending
// in a field named "space" on the other: the `ref.Space() != st.space`
// (or == form) guard.
func spaceGuarded(info *types.Info, fn *ast.FuncDecl, param *types.Var) bool {
	guarded := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if guarded {
			return false
		}
		bin, ok := n.(*ast.BinaryExpr)
		if !ok || (bin.Op.String() != "!=" && bin.Op.String() != "==") {
			return true
		}
		if (isSpaceRefOn(info, bin.X, param) && endsInSpaceField(bin.Y)) ||
			(isSpaceRefOn(info, bin.Y, param) && endsInSpaceField(bin.X)) {
			guarded = true
			return false
		}
		return true
	})
	return guarded
}

// isSpaceRefOn matches `p.Space()` or `p.space` where p resolves to param.
func isSpaceRefOn(info *types.Info, e ast.Expr, param *types.Var) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		if call, isCall := ast.Unparen(e).(*ast.CallExpr); isCall {
			sel, ok = ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Space" {
				return false
			}
		} else {
			return false
		}
	} else if sel.Sel.Name != "space" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && info.Uses[id] == param
}

// endsInSpaceField matches any selector chain whose final field is named
// space (st.space, e.st.space, ...).
func endsInSpaceField(e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "space"
}
