package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestFoldTracesFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := foldTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	ms := time.Millisecond
	want := map[string]time.Duration{
		"sim":        100 * ms, // module leaf
		"runtime":    230 * ms, // malloc called by coherence, plus a GC worker
		"transport":  340 * ms, // link-map leaves and the hashing under them
		"directory":  400 * ms, // sort leaf under Store.ForEach
		"bench":      30 * ms,  // clock read in a span wrapper, plus the profiler
		"shard":      80 * ms,  // ShardPort method
		"mesh":       60 * ms,  // (*Network).finishX stays in mesh
		"workload":   20 * ms,
		"coherence":  50 * ms, // a generic shape, spaces in its name
		unattributed: 10 * ms, // a stack with no caller inside the module
		calibration:  70 * ms, // host-speed slices, left out of the shares
	}
	var total, sum time.Duration
	for layer, d := range want {
		if got[layer] != d {
			t.Errorf("%s = %v, want %v", layer, got[layer], d)
		}
		total += d
	}
	for layer, d := range got {
		if _, ok := want[layer]; !ok {
			t.Errorf("unexpected layer %s = %v", layer, d)
		}
		sum += d
	}
	if sum != 1390*ms || sum != total {
		t.Errorf("folded samples sum to %v, want 1.39s", sum)
	}
	shares := 0.0
	for _, d := range got {
		shares += float64(d) / float64(sum)
	}
	if shares < 0.999999 || shares > 1.000001 {
		t.Errorf("shares sum to %v, want 1", shares)
	}
}

func TestAttribute(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"limitless/internal/cache.(*Cache).Read", "runtime.main"}, "cache"},
		{[]string{"runtime.gcWriteBarrier2", "limitless/internal/proc.(*Processor).step"}, "runtime"},
		{[]string{"runtime.memmove", "runtime.growslice", "limitless/internal/mesh.(*ShardPort).SendFrom"}, "runtime"},
		{[]string{"internal/runtime/maps.(*Map).getWithKey", "runtime.mapaccess1_fast64",
			"limitless/internal/mesh.(*Network).xmit"}, "transport"},
		{[]string{"sync/atomic.(*Int64).Add", "limitless/internal/sim.(*ShardedEngine).runWindow"}, "shard"},
		{[]string{"runtime.nanotime1", "time.Now", "main.(*tracedHandler).Handle"}, "bench"},
		{[]string{"runtime.nanotime1", "time.Now", "main.(*calibrator).measure"}, calibration},
		{[]string{"limitless.Config.build", "limitless.Run"}, "machine"},
		{[]string{"limitless/internal/protocol.(*Table[...]).Dispatch"}, "coherence"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm"}, "runtime"},
		{[]string{"syscall.Syscall6", "os.(*File).Write"}, unattributed},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestSplitFunc(t *testing.T) {
	cases := [][3]string{
		{"limitless/internal/mesh.(*Network).xmit", "limitless/internal/mesh", "(*Network).xmit"},
		{"limitless.Config.build", "limitless", "Config.build"},
		{"main.(*tracer).deliverer.func1", "main", "(*tracer).deliverer.func1"},
		{"internal/runtime/maps.(*Map).getWithKey", "internal/runtime/maps", "(*Map).getWithKey"},
		{"runtime.mallocgc", "runtime", "mallocgc"},
	}
	for _, c := range cases {
		if pkg, name := splitFunc(c[0]); pkg != c[1] || name != c[2] {
			t.Errorf("splitFunc(%q) = %q, %q; want %q, %q", c[0], pkg, name, c[1], c[2])
		}
	}
}

// TestEveryFunctionHasOneLayer parses every library package of the module
// and checks that each function, and a closure inside it, maps to exactly
// one layer, and that the shard and transport layers hold the functions of
// the files that define them.
func TestEveryFunctionHasOneLayer(t *testing.T) {
	dirs, err := filepath.Glob("../internal/*")
	if err != nil {
		t.Fatal(err)
	}
	dirs = append(dirs, "..")
	checked := 0
	for _, dir := range dirs {
		pkg := "limitless"
		if dir != ".." {
			pkg += "/internal/" + filepath.Base(dir)
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				name := pprofName(fd)
				want := expectedLayer(pkg, filepath.Base(file), name)
				for _, n := range []string{name, name + ".func1"} {
					checked++
					if k := specificRules(pkg, n); k > 1 {
						t.Errorf("%s.%s matches %d layer rules", pkg, n, k)
					}
					layer, ok := moduleLayer(pkg, n)
					if !ok {
						t.Errorf("%s.%s (%s) has no layer", pkg, n, file)
					} else if want != "" && layer != want {
						t.Errorf("%s.%s (%s) is in layer %s, want %s", pkg, n, file, layer, want)
					}
				}
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("checked only %d functions; did the source tree move?", checked)
	}
}

// expectedLayer is the file-based definition of the layers README.md
// defines by file: "" where the package default is all the check needs.
func expectedLayer(pkg, file, name string) string {
	switch pkg {
	case "limitless/internal/sim":
		if file == "sharded.go" || strings.HasPrefix(name, "(*ShardedEngine).") {
			return "shard"
		}
		return "sim"
	case "limitless/internal/mesh":
		switch {
		case strings.HasPrefix(name, "(*ShardPort)."), file == "sharded.go":
			return "shard"
		case name == "(*Network).finishX":
			return "mesh"
		case file == "transport.go":
			return "transport"
		}
		return "mesh"
	}
	return ""
}

func specificRules(pkg, name string) int {
	n := 0
	for _, r := range layerRules {
		if r.pkg == pkg && r.funcs != nil && r.funcs.MatchString(name) {
			n++
		}
	}
	return n
}

// pprofName renders a declaration the way pprof names the compiled
// function, without its package: "F", "T.M", "(*T).M", "(*T[...]).M".
func pprofName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = true, s.X
	}
	suffix := ""
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ, suffix = x.X, "[...]"
	case *ast.IndexListExpr:
		typ, suffix = x.X, "[...]"
	}
	recv := typ.(*ast.Ident).Name + suffix
	if star {
		return "(*" + recv + ")." + fd.Name.Name
	}
	return recv + "." + fd.Name.Name
}
