// Package analysis is a dependency-free static-analysis framework for this
// repository: a package loader over go/parser + go/types + go/importer, a
// finding/suppression model, a golden-test harness, and the project-specific
// analyzers run by cmd/buglint. The analyzers mechanically enforce
// invariants that earlier PRs established in prose — lock ordering,
// cross-space guards, hot-path allocation rules, and atomic file
// publication — so regressions surface in CI rather than in review.
// docs/ANALYZERS.md describes each check.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check. Run inspects a Pass's package and reports
// findings through it; returned errors abort the run (reserved for internal
// failures, not findings).
type Analyzer struct {
	// Name is the check name used in output, -checks, and
	// //buglint:ignore directives.
	Name string
	// Doc is a one-line description shown by buglint -list.
	Doc string
	// Run performs the check.
	Run func(*Pass) error
}

// A Pass couples one analyzer invocation to one loaded package.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Pkg is the package under analysis (typechecked).
	Pkg      *Package
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Check:    p.Analyzer.Name,
		Pos:      pos,
		Position: p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Finding is one diagnostic produced by an analyzer (or by the
// suppression scanner itself, for malformed directives).
type Finding struct {
	// Check is the analyzer name, or "ignore" for directive problems.
	Check string
	// Pos is the token position the finding anchors to.
	Pos token.Pos
	// Position is Pos resolved through the package FileSet.
	Position token.Position
	// Message describes the violation.
	Message string
}

// String formats the finding as file:line:col: [check] message, the format
// buglint prints and golden tests match against.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Position.Filename, f.Position.Line, f.Position.Column, f.Check, f.Message)
}

// Run applies the analyzers to pkg in order, filters the results through
// //buglint:ignore directives found in the package, and returns the
// surviving findings sorted by position. Malformed directives (missing
// reason, unknown check name) are themselves returned as findings.
func Run(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	var raw []Finding
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Pkg: pkg, findings: &raw}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
		}
	}
	// A directive is well-formed when it names any registered check, not
	// just one enabled for this run: `buglint -checks renamesync` must not
	// flag the tree's crossspace suppressions as typos.
	known := make(map[string]bool, len(analyzers))
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	findings := applySuppressions(pkg, raw, known)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Position, findings[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return findings[i].Check < findings[j].Check
	})
	return findings, nil
}

// ---- shared AST/type helpers used by several analyzers ----

// directiveIn reports whether the comment group contains the exact
// directive comment (e.g. "//bugdoc:hotpath"). Directive comments are
// excluded from CommentGroup.Text, so the raw list is scanned.
func directiveIn(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

// deref removes one level of pointer indirection.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedOf returns the defined type underlying t (through pointers and
// aliases), or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	n, _ := types.Unalias(deref(t)).(*types.Named)
	return n
}

// isPkgType reports whether t (through pointers) is the defined type
// pkgName.typeName, matching by package name rather than import path so
// golden fixtures can supply a stand-in package.
func isPkgType(t types.Type, pkgName, typeName string) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Name() == pkgName && obj.Name() == typeName
}

// calleeObj resolves the object a call expression invokes, or nil.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.Uses[fun.Sel]
	}
	return nil
}

// isPkgFunc reports whether the call invokes a function from the package
// with the given import path (e.g. "sync/atomic", "fmt").
func isPkgFunc(info *types.Info, call *ast.CallExpr) (types.Object, string) {
	obj := calleeObj(info, call)
	if obj == nil || obj.Pkg() == nil {
		return nil, ""
	}
	return obj, obj.Pkg().Path()
}

// funcDocHas reports whether fn carries the directive in its doc comment.
func funcDocHas(fn *ast.FuncDecl, directive string) bool {
	return directiveIn(fn.Doc, directive)
}

// eachFuncDecl visits every function declaration with a body in the
// package, in file order.
func eachFuncDecl(pkg *Package, visit func(*ast.FuncDecl)) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				visit(fn)
			}
		}
	}
}

// recvNamed returns the defined type of a method's receiver, or nil for
// plain functions.
func recvNamed(info *types.Info, fn *ast.FuncDecl) *types.Named {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return nil
	}
	return namedOf(info.TypeOf(fn.Recv.List[0].Type))
}
