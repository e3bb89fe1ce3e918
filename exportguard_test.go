package limitless

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

// testOnlyExports lists the exported functions and methods under internal/
// that only tests call, each with a test that needs it. Keys are
// "pkg.Func" or "pkg.Type.Method".
var testOnlyExports = map[string]string{
	// The unpooled reference the pooled engine is compared against.
	"sim.Engine.SetPooling": "FuzzSchedulerEquivalence",
	"sim.Engine.Scheduler":  "TestOraclesReachEveryLayer",
	// The closure form of AtHandler keeps the engine tests readable.
	"sim.Engine.At":         "TestEngineRunsEventsInTimeOrder",
	"cache.Cache.Occupancy": "FuzzCacheEquivalence",
	"mesh.Network.Distance": "TestRouteLengthEqualsDistance",
	// Software-directory state the handler tests inspect.
	"swdir.Handler.Resident":      "TestHandlerOverflowBuildsVector",
	"swdir.LockHandler.QueueLen":  "TestLockHandlerGrantsFIFO",
	"swdir.UpdateHandler.Readers": "TestUpdateHandlerMulticasts",
	"workload.Barrier.Depth":      "TestBarrierJoinsAllProcessors",
	"workload.Barrier.NumNodes":   "TestBarrierDepthAndNodes",
	"stats.Histogram.Max":         "TestHistogramPercentileBounds",
	// The check harness: its driver and its two presets are run by their
	// tests.
	"check.Run":       "TestExploreAllSchemes",
	"check.Explore":   "TestExploreAllSchemes",
	"check.Chaos":     "TestChaosMatrix",
	"check.Report.Ok": "TestExploreAllSchemes",
}

// TestNoTestOnlyExports fails when an exported function or method declared
// in a non-test file under internal/ is referenced by no non-test file of
// the repository outside its own declaration, unless testOnlyExports names
// it; it fails too on an allowlist entry that names no such export or no
// test. It reads every Go file under the module root (bench/ included),
// skipping dot-directories such as .bench_build and testdata.
//
// A top-level function F of package p counts as used only where it is
// named: as the selector p.F in a file that imports p, or as a bare F in a
// non-test file of p itself, so a same-named declaration elsewhere cannot
// hide a test-only export. A method matches by name alone: any non-test
// use of the name counts for every method of that name, which can hide a
// test-only method but never raises a false alarm.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		key, name  string
		pkg        string // import path of the declaring package
		method     bool
		file       string
		start, end token.Pos
	}
	fset := token.NewFileSet()
	var decls []decl
	names := map[string][]token.Pos{} // identifier name -> non-test positions
	funcs := map[string][]token.Pos{} // "importpath.F" -> non-test positions naming function F
	tests := map[string]bool{}        // functions declared in test files
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, dl := range f.Decls {
				if fd, ok := dl.(*ast.FuncDecl); ok && fd.Recv == nil {
					tests[fd.Name.Name] = true
				}
			}
			return nil
		}
		// Import paths follow the directory tree under the module path;
		// no internal package is imported under an alias.
		self := "limitless/" + filepath.ToSlash(filepath.Dir(path))
		imports := map[string]string{} // local name -> import path
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		selected := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				selected[sel.Sel] = true
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					k := imports[x.Name] + "." + sel.Sel.Name
					funcs[k] = append(funcs[k], sel.Sel.Pos())
				}
			}
			if id, ok := n.(*ast.Ident); ok {
				names[id.Name] = append(names[id.Name], id.Pos())
				if !selected[id] {
					k := self + "." + id.Name
					funcs[k] = append(funcs[k], id.Pos())
				}
			}
			return true
		})
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		for _, dl := range f.Decls {
			fd, ok := dl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil {
				key = f.Name.Name + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, fd.Name.Name, self, fd.Recv != nil, path, fd.Pos(), fd.End()})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declarations under internal/")
	}

	found := map[string]bool{}
	var unlisted []string
	for _, d := range decls {
		uses := funcs[d.pkg+"."+d.name]
		if d.method {
			uses = names[d.name]
		}
		used := false
		for _, p := range uses {
			if p < d.start || p >= d.end {
				used = true
				break
			}
		}
		if used {
			continue
		}
		found[d.key] = true
		if _, ok := testOnlyExports[d.key]; !ok {
			unlisted = append(unlisted, d.key+" ("+d.file+")")
		}
	}
	sort.Strings(unlisted)
	for _, k := range unlisted {
		t.Errorf("%s: only tests reach it; delete it, or list it in testOnlyExports with the test that needs it", k)
	}
	for k, test := range testOnlyExports {
		if !found[k] {
			t.Errorf("testOnlyExports lists %s, which is not a test-only export; remove the entry", k)
		}
		if !tests[test] {
			t.Errorf("testOnlyExports: %s names %s, which no test file declares", k, test)
		}
	}
}

// recvName returns the type name of a method receiver: T for T, *T, T[P]
// and *T[P].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
