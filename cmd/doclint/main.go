// Command doclint is the docs drift gate. It fails when an exported
// symbol of the given packages lacks a godoc comment, so the public
// surface of the durability and provenance layers cannot grow
// undocumented — and, with -docs, when a backticked `package.Symbol`
// reference in the listed markdown files no longer resolves to an
// exported symbol of those packages, so prose cannot keep naming code
// that was renamed or removed.
//
//	go run ./cmd/doclint ./bugdoc ./internal/provenance ./internal/provlog
//	go run ./cmd/doclint -docs README.md,docs ./bugdoc ./internal/provlog
//
// A declaration is covered by a comment on itself or, for grouped
// const/var/type declarations, by a comment on the group. Test files are
// ignored. -docs takes a comma-separated list of markdown files or
// directories (scanned for *.md); a reference gates only when its package
// segment names one of the linted packages — `provlog.Open`,
// `pipeline.FlakyPolicy.Quorum`, `provenance.Store.AddHistory` —
// so mentions of other packages and shell snippets pass through. Exit
// status 1 lists every offender as file:line: description.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"repro/internal/analysis"
)

func main() {
	docs := flag.String("docs", "", "comma-separated markdown files or directories whose backticked package.Symbol references must resolve")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: doclint [-docs files] <package dir>...")
		os.Exit(2)
	}
	// All packages parse through the shared analysis loader (one FileSet,
	// same build-tag filtering as buglint); doclint stays syntax-only, so
	// it never pays for typechecking.
	ld, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "doclint:", err)
		os.Exit(2)
	}
	bad := 0
	exports := map[string]map[string]bool{}
	for _, dir := range flag.Args() {
		offenders, err := lintDir(ld, dir, exports)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doclint:", err)
			os.Exit(2)
		}
		for _, o := range offenders {
			fmt.Println(o)
		}
		bad += len(offenders)
	}
	if *docs != "" {
		offenders, err := lintDocs(strings.Split(*docs, ","), exports)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doclint:", err)
			os.Exit(2)
		}
		for _, o := range offenders {
			fmt.Println(o)
		}
		bad += len(offenders)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d offenders\n", bad)
		os.Exit(1)
	}
}

// lintDir parses one package directory through the shared loader and
// returns an entry per exported declaration without a doc comment. As a
// side effect it records the package's exported surface into exports —
// top-level names plus "Type.Method" pairs — for the -docs reference
// check.
func lintDir(ld *analysis.Loader, dir string, exports map[string]map[string]bool) ([]string, error) {
	files, err := ld.ParseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	var out []string
	report := func(pos token.Pos, kind, name string) {
		p := ld.Fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	{
		pkgName := files[0].Name.Name
		syms := exports[pkgName]
		if syms == nil {
			syms = map[string]bool{}
			exports[pkgName] = syms
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || !receiverExported(d) {
						continue
					}
					if recv := receiverName(d); recv != "" {
						syms[recv+"."+d.Name.Name] = true
					} else {
						syms[d.Name.Name] = true
					}
					if d.Doc == nil {
						kind := "function"
						if d.Recv != nil {
							kind = "method"
						}
						report(d.Pos(), kind, d.Name.Name)
					}
				case *ast.GenDecl:
					if d.Tok != token.CONST && d.Tok != token.VAR && d.Tok != token.TYPE {
						continue
					}
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if !s.Name.IsExported() {
								continue
							}
							syms[s.Name.Name] = true
							recordFields(syms, s)
							if d.Doc == nil && s.Doc == nil && s.Comment == nil {
								report(s.Pos(), "type", s.Name.Name)
							}
						case *ast.ValueSpec:
							for _, name := range s.Names {
								if !name.IsExported() {
									continue
								}
								syms[name.Name] = true
								if d.Doc == nil && s.Doc == nil && s.Comment == nil {
									report(name.Pos(), strings.ToLower(d.Tok.String()), name.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

// recordFields adds a struct type's exported fields to the symbol set as
// "Type.Field", so docs can reference configuration knobs like
// `pipeline.FlakyPolicy.Quorum`.
func recordFields(syms map[string]bool, s *ast.TypeSpec) {
	st, ok := s.Type.(*ast.StructType)
	if !ok || st.Fields == nil {
		return
	}
	for _, f := range st.Fields.List {
		for _, name := range f.Names {
			if name.IsExported() {
				syms[s.Name.Name+"."+name.Name] = true
			}
		}
	}
}

// receiverName returns the name of a method's receiver type, or "" for
// plain functions.
func receiverName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// receiverExported reports whether a method's receiver type is exported
// (methods on unexported types are internal details even when the method
// name is capitalized, e.g. interface implementations).
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

// docRef matches a backticked code reference of the form `pkg.Symbol`,
// `pkg.Type.Method`, or `pkg.Type.Field`: a lower-case package segment
// followed by one or two exported segments. Backticked flags, file
// globs, and shell fragments do not match.
var docRef = regexp.MustCompile("`([a-z][a-zA-Z0-9]*)\\.([A-Z][A-Za-z0-9]*)((?:\\.[A-Z][A-Za-z0-9]*)?)`")

// lintDocs scans markdown files (or directories of *.md) for backticked
// package.Symbol references into the linted packages and reports every
// one that does not resolve to an exported symbol, method, or field.
func lintDocs(paths []string, exports map[string]map[string]bool) ([]string, error) {
	var files []string
	for _, p := range paths {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		fi, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if fi.IsDir() {
			md, err := filepath.Glob(filepath.Join(p, "*.md"))
			if err != nil {
				return nil, err
			}
			files = append(files, md...)
		} else {
			files = append(files, p)
		}
	}
	var out []string
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		for lineNo, line := range strings.Split(string(data), "\n") {
			for _, m := range docRef.FindAllStringSubmatch(line, -1) {
				pkg, sym, tail := m[1], m[2], m[3]
				syms, ok := exports[pkg]
				if !ok {
					continue // a package outside the linted set
				}
				want := sym + tail // "Symbol", "Type.Method", or "Type.Field"
				if syms[want] {
					continue
				}
				out = append(out, fmt.Sprintf("%s:%d: `%s.%s` does not resolve to an exported symbol of package %s",
					path, lineNo+1, pkg, want, pkg))
			}
		}
	}
	return out, nil
}
