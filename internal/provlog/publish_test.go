package provlog

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestPublishRule holds the module to one publication path: os.Rename is
// called only in atomicPublish, after the temp file's Sync and before the
// directory's syncDir. A rename without those fsyncs can surface an empty
// or missing file after a crash even though the rename succeeded, and no
// test can observe an fsync, so the rule is checked on the syntax of every
// non-test Go file of the module, whatever its build tags. The subtests
// plant each defect the rule exists for and require the check to see it.
func TestPublishRule(t *testing.T) {
	srcs := moduleSources(t, filepath.Join("..", ".."))
	for _, v := range publishViolations(t, srcs) {
		t.Error(v)
	}

	publish := filepath.Join("internal", "provlog", "publish.go")
	if _, ok := srcs[publish]; !ok {
		t.Fatalf("%s not among the module's sources", publish)
	}
	edit := func(old, new string) func(t *testing.T, srcs map[string]string) {
		return func(t *testing.T, srcs map[string]string) {
			if !strings.Contains(srcs[publish], old) {
				t.Fatalf("the plant no longer applies: %s lacks %q", publish, old)
			}
			srcs[publish] = strings.Replace(srcs[publish], old, new, 1)
		}
	}
	addFile := func(src string) func(t *testing.T, srcs map[string]string) {
		return func(t *testing.T, srcs map[string]string) {
			srcs[filepath.Join("internal", "provlog", "planted.go")] = src
		}
	}
	for _, plant := range []struct {
		name  string
		apply func(t *testing.T, srcs map[string]string)
		want  string
	}{
		{"rename outside the helper", addFile("package provlog\n\nimport \"os\"\n\n" +
			"func publishFast(from, to string) error { return os.Rename(from, to) }\n"),
			"os.Rename outside atomicPublish"},
		{"rename through an aliased os import", addFile("package provlog\n\nimport stdos \"os\"\n\n" +
			"func publishFast(from, to string) error { return stdos.Rename(from, to) }\n"),
			"stdos.Rename outside atomicPublish"},
		{"no file fsync before the rename", edit("tmp.Sync()", "error(nil)"), "without a Sync"},
		{"no directory fsync after the rename", edit("return syncDir(dir)", "return nil"), "without a syncDir"},
	} {
		t.Run(plant.name, func(t *testing.T) {
			planted := maps.Clone(srcs)
			plant.apply(t, planted)
			v := publishViolations(t, planted)
			if !slices.ContainsFunc(v, func(s string) bool { return strings.Contains(s, plant.want) }) {
				t.Fatalf("the planted defect drew %q, want a violation containing %q", v, plant.want)
			}
		})
	}
}

// moduleSources reads every non-test Go file under root, keyed by its path
// relative to root. It skips testdata, hidden directories and nested
// modules.
func moduleSources(t *testing.T, root string) map[string]string {
	t.Helper()
	srcs := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		srcs[rel] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return srcs
}

// publishViolations parses srcs and returns one line per breach of the
// publication rule.
func publishViolations(t *testing.T, srcs map[string]string) []string {
	t.Helper()
	fset := token.NewFileSet()
	var out []string
	helperRenames := 0
	for _, name := range slices.Sorted(maps.Keys(srcs)) {
		f, err := parser.ParseFile(fset, name, srcs[name], parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		osName := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"os"` {
				osName = "os"
				if imp.Name != nil {
					osName = imp.Name.Name
				}
			}
		}
		if osName == "" || osName == "_" {
			continue
		}
		isRename := func(call *ast.CallExpr) bool {
			switch fun := call.Fun.(type) {
			case *ast.SelectorExpr:
				x, ok := fun.X.(*ast.Ident)
				return ok && x.Name == osName && fun.Sel.Name == "Rename"
			case *ast.Ident:
				return osName == "." && fun.Name == "Rename"
			}
			return false
		}
		inProvlog := filepath.Dir(name) == filepath.Join("internal", "provlog")
		for _, decl := range f.Decls {
			var renames, syncs, dirSyncs []token.Pos
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isRename(call) {
					renames = append(renames, call.Pos())
					return true
				}
				switch fun := call.Fun.(type) {
				case *ast.SelectorExpr:
					if fun.Sel.Name == "Sync" {
						syncs = append(syncs, call.Pos())
					}
				case *ast.Ident:
					if fun.Name == "syncDir" {
						dirSyncs = append(dirSyncs, call.Pos())
					}
				}
				return true
			})
			fn, _ := decl.(*ast.FuncDecl)
			helper := inProvlog && fn != nil && fn.Recv == nil && fn.Name.Name == "atomicPublish"
			for _, pos := range renames {
				at := fset.Position(pos)
				if !helper {
					out = append(out, fmt.Sprintf("%s: %s.Rename outside atomicPublish", at, osName))
					continue
				}
				helperRenames++
				if !slices.ContainsFunc(syncs, func(p token.Pos) bool { return p < pos }) {
					out = append(out, fmt.Sprintf("%s: atomicPublish renames without a Sync of the file before it", at))
				}
				if !slices.ContainsFunc(dirSyncs, func(p token.Pos) bool { return p > pos }) {
					out = append(out, fmt.Sprintf("%s: atomicPublish renames without a syncDir after it", at))
				}
			}
		}
	}
	if helperRenames != 1 {
		out = append(out, fmt.Sprintf("atomicPublish renames %d times, want once", helperRenames))
	}
	return out
}
