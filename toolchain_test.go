package hetopt

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoAtomicOrAndResultUse guards against a go1.24.0 amd64 miscompile:
// code that uses the value returned by Or or And on a sync/atomic type
// (atomic.Uint64.Or and friends) was compiled wrongly, and a caller
// crashed. It scans every non-test source of the module and fails on
// such a use; calling Or/And as a statement, discarding the result, is
// fine. Candidates are found syntactically (a method call named Or or
// And whose value is used, so package functions like cmp.Or never
// match), then confirmed by type-checking their package.
func TestNoAtomicOrAndResultUse(t *testing.T) {
	fset := token.NewFileSet()
	dirs := map[string]bool{} // packages holding a candidate
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || hasGoMod(path)) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if len(orAndResultUses(f)) > 0 {
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir := range dirs {
		files, info := typeCheckDir(t, fset, dir)
		for _, f := range files {
			for _, sel := range orAndResultUses(f) {
				s := info.Selections[sel]
				if s == nil {
					continue
				}
				recv := s.Recv()
				if p, ok := recv.(*types.Pointer); ok {
					recv = p.Elem()
				}
				if n, ok := recv.(*types.Named); ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync/atomic" {
					t.Errorf("%s: uses the result of atomic.%s.%s, which go1.24.0 on amd64 miscompiles; loop on Load/CompareAndSwap instead",
						fset.Position(sel.Sel.Pos()), n.Obj().Name(), sel.Sel.Name)
				}
			}
		}
	}
}

func hasGoMod(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "go.mod"))
	return err == nil
}

// orAndResultUses returns the selectors of f's method calls named Or or
// And whose result is used: every such call except a bare statement and
// calls on an imported package name.
func orAndResultUses(f *ast.File) []*ast.SelectorExpr {
	imported := map[string]bool{}
	for _, spec := range f.Imports {
		path, _ := strconv.Unquote(spec.Path.Value)
		name := path[strings.LastIndex(path, "/")+1:]
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imported[name] = true
	}
	discarded := map[ast.Expr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if s, ok := n.(*ast.ExprStmt); ok {
			discarded[s.X] = true
		}
		return true
	})
	var uses []*ast.SelectorExpr
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || discarded[call] {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Or" && sel.Sel.Name != "And") {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && imported[id.Name] {
			return true
		}
		uses = append(uses, sel)
		return true
	})
	return uses
}

// typeCheckDir parses and type-checks the non-test package in dir from
// source.
func typeCheckDir(t *testing.T, fset *token.FileSet, dir string) ([]*ast.File, *types.Info) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check(dir, fset, files, info); err != nil {
		t.Fatalf("type-checking %s: %v", dir, err)
	}
	return files, info
}
