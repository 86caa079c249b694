package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// AtomicMix enforces the discipline behind every lock-free structure in the
// repo (telemetry counters, the WAL byte count, oracle call counts): a
// variable or field that is ever accessed through sync/atomic must never be
// read or written plainly elsewhere, and a typed atomic.* value may only be
// used through its methods — never copied, compared, or assigned around.
// A single plain access reintroduces exactly the torn-read/lost-update race
// the atomic was bought to prevent.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc:  "variables accessed via sync/atomic must never be accessed plainly",
	Run:  runAtomicMix,
}

// atomicMethods are the accessor methods of the typed sync/atomic wrappers.
var atomicMethods = map[string]bool{
	"Load": true, "Store": true, "Add": true, "Swap": true,
	"CompareAndSwap": true, "CompareAndSwapPointer": true, "Or": true, "And": true,
}

func runAtomicMix(pass *Pass) error {
	info := pass.Pkg.Info

	// Pass 1: collect every object passed by address to a sync/atomic
	// function, and remember the identifiers inside those calls so they
	// are not reported as plain uses in pass 2.
	atomicObjs := make(map[types.Object]bool)
	sanctioned := make(map[*ast.Ident]bool)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, path := isPkgFunc(info, call); path != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				if un, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && un.Op.String() == "&" {
					if obj := addressedObj(info, un.X); obj != nil {
						atomicObjs[obj] = true
					}
				}
				ast.Inspect(arg, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						sanctioned[id] = true
					}
					return true
				})
			}
			return true
		})
	}

	// Pass 2: report plain uses of pass-1 objects, and non-method uses of
	// typed atomic.* values.
	for _, f := range pass.Pkg.Files {
		parents := parentMap(f)
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj, ok := info.Uses[id].(*types.Var)
			if !ok {
				return true // only value uses matter, not type or func names
			}
			if atomicObjs[obj] && !sanctioned[id] {
				pass.Reportf(id.Pos(),
					"%s is accessed via sync/atomic elsewhere; plain access races with the atomic ones", obj.Name())
				return true
			}
			if isTypedAtomic(obj.Type()) && !usedViaAtomicMethod(info, parents, id) {
				pass.Reportf(id.Pos(),
					"%s is a typed atomic; use its Load/Store/Add/Swap methods, never the value directly", obj.Name())
			}
			return true
		})
	}
	return nil
}

// addressedObj resolves &X's operand to a variable or field object.
func addressedObj(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[x]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			return sel.Obj()
		}
	}
	return nil
}

// isTypedAtomic reports whether t is one of sync/atomic's typed wrappers
// (atomic.Int64, atomic.Bool, atomic.Pointer[T], ...).
func isTypedAtomic(t types.Type) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" &&
		!strings.HasSuffix(obj.Name(), "error") // everything but internal helpers
}

// usedViaAtomicMethod reports whether the identifier's use is as the base
// of an atomic method call — x in x.Load(), c.v in c.v.Add(n) — or has
// its address taken to hand the atomic to a helper (the pointee is still
// only reachable through methods).
func usedViaAtomicMethod(info *types.Info, parents map[ast.Node]ast.Node, id *ast.Ident) bool {
	// The value expression for the atomic: the ident itself, or the
	// selector that selects it as a field (possibly at the end of a
	// longer chain, like l.met.bytes).
	var value ast.Node = id
	if sel, ok := parents[id].(*ast.SelectorExpr); ok && sel.Sel == id {
		value = sel
	}
	switch p := parents[value].(type) {
	case *ast.SelectorExpr:
		if p.X == value && atomicMethods[p.Sel.Name] {
			call, ok := parents[p].(*ast.CallExpr)
			return ok && ast.Unparen(call.Fun) == ast.Expr(p)
		}
	case *ast.UnaryExpr:
		return p.Op.String() == "&"
	}
	return false
}

// parentMap builds a child-to-parent map for one file.
func parentMap(f *ast.File) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
