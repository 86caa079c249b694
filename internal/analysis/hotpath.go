package analysis

import (
	"go/ast"
	"go/types"
)

// hotpathDirective marks a function as allocation-free hot path. The
// annotated paths are the ones the PR 1/4 benchmarks hold to zero allocs:
// memoized lookups and the store's per-record commit core.
const hotpathDirective = "//bugdoc:hotpath"

// HotPath enforces the zero-alloc contract on functions annotated
// //bugdoc:hotpath: no fmt.* calls, no map allocation (make or literal),
// no closure literals, no conversion of a concrete value to an interface
// (explicitly, at a call argument, or in a return), and no string
// concatenation. Benchmarks catch these regressions only statistically;
// the annotation makes the contract a compile-gate.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "//bugdoc:hotpath functions may not call fmt, allocate maps/closures, box to interface, or concatenate strings",
	Run:  runHotPath,
}

func runHotPath(pass *Pass) error {
	info := pass.Pkg.Info
	eachFuncDecl(pass.Pkg, func(fn *ast.FuncDecl) {
		if !funcDocHas(fn, hotpathDirective) {
			return
		}
		var results *types.Tuple
		if sig, ok := info.TypeOf(fn.Name).(*types.Signature); ok {
			results = sig.Results()
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkHotCall(pass, info, n)
			case *ast.FuncLit:
				pass.Reportf(n.Pos(), "hot path allocates a closure")
				return false // don't descend: the closure body is cold
			case *ast.CompositeLit:
				if _, ok := types.Unalias(info.TypeOf(n)).Underlying().(*types.Map); ok {
					pass.Reportf(n.Pos(), "hot path allocates a map literal")
				}
			case *ast.BinaryExpr:
				if n.Op.String() == "+" && isStringType(info.TypeOf(n.X)) {
					pass.Reportf(n.Pos(), "hot path concatenates strings")
				}
			case *ast.AssignStmt:
				if n.Tok.String() == "+=" && len(n.Lhs) == 1 && isStringType(info.TypeOf(n.Lhs[0])) {
					pass.Reportf(n.Pos(), "hot path concatenates strings")
				}
			case *ast.ReturnStmt:
				checkHotReturn(pass, info, results, n)
			}
			return true
		})
	})
	return nil
}

// checkHotCall flags fmt.* calls, make(map...), explicit conversions to
// interface types, and concrete arguments passed to interface parameters.
func checkHotCall(pass *Pass, info *types.Info, call *ast.CallExpr) {
	if obj, path := isPkgFunc(info, call); obj != nil && path == "fmt" {
		pass.Reportf(call.Pos(), "hot path calls fmt.%s", obj.Name())
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "make" && len(call.Args) > 0 {
			if _, isMap := types.Unalias(info.TypeOf(call.Args[0])).Underlying().(*types.Map); isMap {
				pass.Reportf(call.Pos(), "hot path allocates a map with make")
			}
			return
		}
	}
	// Explicit conversion T(x) where T is an interface and x is concrete.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if boxes(info.TypeOf(call.Args[0]), tv.Type) {
			pass.Reportf(call.Pos(), "hot path converts a concrete value to an interface")
		}
		return
	}
	// Implicit conversion at an argument: concrete value, interface param.
	sig, ok := types.Unalias(info.TypeOf(call.Fun)).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if s, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < sig.Params().Len():
			pt = sig.Params().At(i).Type()
		}
		if pt != nil && boxes(info.TypeOf(arg), pt) {
			pass.Reportf(arg.Pos(), "hot path passes a concrete value to an interface parameter (boxing allocation)")
		}
	}
}

// checkHotReturn flags returning a concrete value from an interface-typed
// result (the classic `return myErr` boxing).
func checkHotReturn(pass *Pass, info *types.Info, results *types.Tuple, ret *ast.ReturnStmt) {
	if results == nil || len(ret.Results) != results.Len() {
		return
	}
	for i, res := range ret.Results {
		if boxes(info.TypeOf(res), results.At(i).Type()) {
			pass.Reportf(res.Pos(), "hot path returns a concrete value as an interface (boxing allocation)")
		}
	}
}

// boxes reports whether assigning a value of type from to a location of
// type to converts a concrete value to an interface. Untyped nil and
// values that are already interfaces never box.
func boxes(from, to types.Type) bool {
	if from == nil || to == nil {
		return false
	}
	if _, ok := types.Unalias(to).Underlying().(*types.Interface); !ok {
		return false
	}
	if b, ok := types.Unalias(from).(*types.Basic); ok && b.Info()&types.IsUntyped != 0 {
		return false // untyped constant or nil
	}
	if _, ok := types.Unalias(from).Underlying().(*types.Interface); ok {
		return false
	}
	return true
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := types.Unalias(t).Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
