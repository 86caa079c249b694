package analysis

import (
	"go/ast"
	"go/token"
)

// StickyErr enforces the poisoning protocol from PR 3/5: once a write
// fails in a way that leaves the on-disk state unknown, the log is broken
// and nothing may write to it again. Mechanically: in any package that
// declares a sticky-error field (broken), every call to a committing
// function (writeLocked) must be preceded — in the caller, or inside a
// same-package function the caller invoked first — by a read of the
// sticky field. Writing without the check resurrects a poisoned log and
// writes on top of a half-applied failure.
var StickyErr = &Analyzer{
	Name: "stickyerr",
	Doc:  "commit paths must check broken before writing",
	Run:  runStickyErr,
}

// stickyFields are the sticky-error field names the repo uses.
var stickyFields = map[string]bool{"broken": true}

// committingFuncs mutate committed state and therefore require a prior
// sticky check.
var committingFuncs = map[string]bool{"writeLocked": true}

func runStickyErr(pass *Pass) error {
	if !declaresStickyField(pass.Pkg) {
		return nil
	}
	// First pass: which functions read a sticky field anywhere? A call to
	// one of these counts as a check (Append checks through beginLocked).
	checking := make(map[string]bool)
	eachFuncDecl(pass.Pkg, func(fn *ast.FuncDecl) {
		if mentionsSticky(fn.Body) {
			checking[fn.Name.Name] = true
		}
	})
	eachFuncDecl(pass.Pkg, func(fn *ast.FuncDecl) {
		if committingFuncs[fn.Name.Name] {
			return // the committing function itself is the protected region
		}
		var checkedAt token.Pos = token.NoPos
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if stickyFields[n.Name] && !checkedAt.IsValid() {
					checkedAt = n.Pos()
				}
			case *ast.CallExpr:
				name := callName(n)
				if checking[name] && !committingFuncs[name] && !checkedAt.IsValid() {
					checkedAt = n.Pos()
				}
				if committingFuncs[name] && (!checkedAt.IsValid() || n.Pos() < checkedAt) {
					pass.Reportf(n.Pos(),
						"%s calls %s without first checking a sticky error field (broken)",
						fn.Name.Name, name)
				}
			}
			return true
		})
	})
	return nil
}

// declaresStickyField reports whether any struct in the package declares a
// field with a sticky-error name; packages without one are out of scope.
func declaresStickyField(pkg *Package) bool {
	found := false
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return !found
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					if stickyFields[name.Name] {
						found = true
					}
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// mentionsSticky reports whether the body references any sticky field name.
func mentionsSticky(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && stickyFields[id.Name] {
			found = true
		}
		return !found
	})
	return found
}
