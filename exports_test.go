package fbplace

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names internal exports that stay although no other
// non-test file calls them, each with its reason. Keys are
// "pkg.Func" or "pkg.(*Type).Method" (or "pkg.*" for a whole package).
var exportAllowlist = map[string]string{
	"grid.(*WindowRegions).WindowCapacity": "test-support accessor: tests check per-window capacity sums",
	"faultsim.*":                           "fault-injection harness API, driven by the robustness tests",
	"leakcheck.*":                          "goroutine-leak helper that tests of the concurrent packages call",
	"region.CheckFeasibilityPerCell":       "test oracle for the clustered feasibility check (Theorem 2)",
	"qp.Netlength":                         "test oracle for the QP objective",
}

// TestInternalExportsHaveCallers keeps every exported function and method
// under internal/ reachable from production code: internal packages cannot
// be imported from outside this module, so an export that only its own
// tests call is dead code. A function counts as called when another
// non-test file names it (qualified by its package from outside the
// package, bare from inside) or its own file names it beyond the
// declaration. Methods are matched by name alone, so methods that satisfy
// an interface (Error, String, Len, ...) pass.
func TestInternalExportsHaveCallers(t *testing.T) {
	type decl struct {
		key, name, file, dir string
		method               bool
	}
	var decls []decl
	// uses[file] counts identifiers by name; qualified[file] counts
	// pkgdir+"."+name for selectors on imported packages.
	uses := map[string]map[string]int{}
	qualified := map[string]map[string]int{}
	fset := token.NewFileSet()
	modPath := "fbplace/"
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
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
		imports := map[string]string{} // local name -> repo-relative dir
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(p, modPath) {
				continue
			}
			rel := strings.TrimPrefix(p, modPath)
			name := filepath.Base(rel)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = rel
		}
		u, q := map[string]int{}, map[string]int{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				u[n.Name]++
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if rel, ok := imports[x.Name]; ok {
						q[rel+"."+n.Sel.Name]++
					}
				}
			}
			return true
		})
		uses[path], qualified[path] = u, q
		if !strings.HasPrefix(path, "internal"+string(filepath.Separator)) {
			return nil
		}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil {
				key = f.Name.Name + ".(" + recvType(fd.Recv.List[0].Type) + ")." + fd.Name.Name
			}
			decls = append(decls, decl{key: key, name: fd.Name.Name, file: path, dir: filepath.Dir(path), method: fd.Recv != nil})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	allowed := map[string]bool{} // allowlist entries that excused an export
	for _, d := range decls {
		called := uses[d.file][d.name] > 1
		for file, u := range uses {
			if called {
				break
			}
			switch {
			case file == d.file:
			case d.method || filepath.Dir(file) == d.dir:
				called = u[d.name] > 0
			default:
				called = qualified[file][filepath.ToSlash(d.dir)+"."+d.name] > 0
			}
		}
		if called {
			continue
		}
		pkgAll := d.key[:strings.IndexByte(d.key, '.')] + ".*"
		switch {
		case exportAllowlist[d.key] != "":
			allowed[d.key] = true
		case exportAllowlist[pkgAll] != "":
			allowed[pkgAll] = true
		default:
			dead = append(dead, d.key+" ("+d.file+")")
		}
	}
	sort.Strings(dead)
	for _, k := range dead {
		t.Errorf("internal export %s has no caller outside its own tests; delete it or allowlist it with a reason", k)
	}
	for k := range exportAllowlist {
		if !allowed[k] {
			t.Errorf("allowlist entry %s excuses nothing (it has a caller or is gone); drop it", k)
		}
	}
}

// recvType renders a receiver type as "T" or "*T", dropping type
// parameters.
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "*" + recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
