package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the exports that the audit reports and that
// stay anyway, with the reason each stays. An entry the audit no longer
// reports fails the test, so the list cannot go stale.
var exportAllowlist = map[string]string{
	"kernel.Getf2":                  "unblocked oracle: panel tests compare against it; the root kernel benchmarks time it",
	"kernel.GemmNaive":              "oracle for the packed GEMM's tests; the root kernel benchmarks time it",
	"kernel.TrsmLowerLeftUnitNaive": "oracle for the blocked TRSM's tests; the root kernel benchmarks time it",
	"kernel.TrsmLowerLeftNaive":     "oracle for the blocked TRSM's tests; the root kernel benchmarks time it",
	"kernel.TrsmUpperLeftNaive":     "oracle for the blocked TRSM's tests; the root kernel benchmarks time it",
	"mat.Equal":                     "shared test support: bit comparison in the core and engine tests",
	"mat.RandomDiagDominant":        "shared test support: well-conditioned inputs for the core, engine and kernel tests",
	"engine.Engine.Submit":          "non-test code reaches it only through bench's SubmitFactor and SubmitSolveMany",
	"harness.Cluster.Kill":          "test support: the in-process cluster's shard crash, which the cluster tests inject",
	"harness.Cluster.Spawn":         "test support: the in-process cluster's shard join, which the cluster tests drive",
	"kernel.SharedPanel.Held":       "test support: the core tests check that a clean run gives every shared buffer back",
}

// exportExempt are method names that satisfy standard-library
// interfaces; fmt, errors, sort, container/heap and net/http call them.
var exportExempt = map[string]bool{
	"String": true, "Error": true, "Len": true, "Less": true, "Swap": true,
	"Push": true, "Pop": true, "ServeHTTP": true,
}

// deadExports lists, as pkg.Name or pkg.Type.Method, every exported
// function, method on an exported type and package-level var of the
// packages under root/internal that no non-test file of another package
// under root selects. A package-level name counts as selected by a
// pkg.Name selector through an import of its package; a method by any
// .Name selector, so a dead method can be missed but a live one is never
// reported. Types, struct fields and constants are not audited.
func deadExports(root string) ([]string, error) {
	type export struct{ dir, name, method, report string }
	var exports []export
	used := map[string]bool{}                // dir + "." + Name of every pkg.Name selector
	selected := map[string]map[string]bool{} // .Name -> dirs selecting it
	files, err := parseNonTest(root)
	if err != nil {
		return nil, err
	}
	for _, pf := range files {
		f, dir := pf.f, pf.dir
		imports := map[string]string{} // local name -> package dir
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			i := strings.Index(p, "internal/")
			if i < 0 || (i > 0 && p[i-1] != '/') {
				continue
			}
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p[i:]
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
				used[imports[x.Name]+"."+sel.Sel.Name] = true
			}
			if selected[sel.Sel.Name] == nil {
				selected[sel.Sel.Name] = map[string]bool{}
			}
			selected[sel.Sel.Name][dir] = true
			return true
		})
		if !isInternal(dir) {
			continue
		}
		add := func(name, method string) {
			report := f.Name.Name + "." + name
			if method != "" {
				report += "." + method
			}
			exports = append(exports, export{dir, name, method, report})
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if !decl.Name.IsExported() {
					continue
				}
				if decl.Recv == nil {
					add(decl.Name.Name, "")
					continue
				}
				if recv := receiverType(decl.Recv.List[0].Type); ast.IsExported(recv) && !exportExempt[decl.Name.Name] {
					add(recv, decl.Name.Name)
				}
			case *ast.GenDecl:
				if decl.Tok != token.VAR {
					continue
				}
				for _, spec := range decl.Specs {
					for _, name := range spec.(*ast.ValueSpec).Names {
						if name.IsExported() {
							add(name.Name, "")
						}
					}
				}
			}
		}
	}
	var dead []string
	for _, e := range exports {
		live := used[e.dir+"."+e.name]
		if e.method != "" {
			live = false
			for dir := range selected[e.method] {
				live = live || dir != e.dir
			}
		}
		if !live {
			dead = append(dead, e.report)
		}
	}
	slices.Sort(dead)
	return dead, nil
}

// goFile is one parsed non-test file and its directory relative to the
// audited root.
type goFile struct {
	dir string
	f   *ast.File
}

// parseNonTest parses every non-test .go file under root, skipping
// testdata and dot directories below it.
func parseNonTest(root string) ([]goFile, error) {
	var files []goFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		files = append(files, goFile{filepath.ToSlash(rel), f})
		return nil
	})
	return files, err
}

func isInternal(dir string) bool { return dir == "internal" || strings.HasPrefix(dir, "internal/") }

// deadHelpers lists, as pkg.name or pkg.Type.name, every unexported
// package-level function and method declared in a non-test file under
// root/internal that no non-test file of its package refers to outside
// its own body. A function counts as referred to by any identifier of
// its name that is not a selector's field or method, a method by any
// .name selector, so a dead helper can be missed but a live one is
// never reported.
func deadHelpers(root string) ([]string, error) {
	type helper struct{ key, report string }
	var helpers []helper
	refs := map[string]bool{} // dir + " " + name, or dir + " ." + name for a selector
	files, err := parseNonTest(root)
	if err != nil {
		return nil, err
	}
	for _, pf := range files {
		if !isInternal(pf.dir) {
			continue
		}
		for _, decl := range pf.f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				inspectRefs(decl, pf.dir, "", refs)
				continue
			}
			self := ""
			if name := fd.Name.Name; !fd.Name.IsExported() && name != "init" && name != "_" {
				h := helper{pf.dir + " " + name, pf.f.Name.Name + "." + name}
				if fd.Recv != nil {
					h = helper{pf.dir + " ." + name, pf.f.Name.Name + "." + receiverType(fd.Recv.List[0].Type) + "." + name}
				}
				helpers = append(helpers, h)
				self = h.key
			}
			if fd.Recv != nil {
				inspectRefs(fd.Recv, pf.dir, self, refs)
			}
			inspectRefs(fd.Type, pf.dir, self, refs)
			if fd.Body != nil {
				inspectRefs(fd.Body, pf.dir, self, refs)
			}
		}
	}
	var dead []string
	for _, h := range helpers {
		if !refs[h.key] {
			dead = append(dead, h.report)
		}
	}
	slices.Sort(dead)
	return slices.Compact(dead), nil
}

// inspectRefs records in refs every identifier and selector under n, as
// dir + " " + name and dir + " ." + name, except the key self.
func inspectRefs(n ast.Node, dir, self string, refs map[string]bool) {
	var visit func(ast.Node) bool
	record := func(key string) {
		if key != self {
			refs[key] = true
		}
	}
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			record(dir + " ." + n.Sel.Name)
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			record(dir + " " + n.Name)
		}
		return true
	}
	ast.Inspect(n, visit)
}

// receiverType returns the type name of a method receiver such as
// *T, T or *T[R].
func receiverType(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// TestExportsHaveCallers fails on any export under internal/ that only
// its own package and tests reach: delete it, move it into the test
// that pins it, unexport it, or give it a reason in exportAllowlist.
func TestExportsHaveCallers(t *testing.T) {
	t.Run("fixture", func(t *testing.T) {
		dead, err := deadExports(filepath.Join("testdata", "exports"))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(dead, []string{"a.Unused"}) {
			t.Errorf("fixture: reported %q, want exactly a.Unused", dead)
		}
	})
	t.Run("helpers fixture", func(t *testing.T) {
		dead, err := deadHelpers(filepath.Join("testdata", "exports"))
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"c.counter.stale", "c.dead", "c.recursive"}; !slices.Equal(dead, want) {
			t.Errorf("helpers fixture: reported %q, want exactly %q", dead, want)
		}
	})
	helpers, err := deadHelpers(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range helpers {
		t.Errorf("%s is unexported and has no non-test caller in its package: move it into a test file", name)
	}
	dead, err := deadExports(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range dead {
		if exportAllowlist[name] == "" {
			t.Errorf("%s has no non-test caller outside its package", name)
		}
	}
	for name := range exportAllowlist {
		if !slices.Contains(dead, name) {
			t.Errorf("allowlist entry %s has a caller or no longer exists: drop it", name)
		}
	}
}
