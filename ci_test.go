package limitless

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsMatchTests reads the CI workflow and checks every
// `go test` command in it: each alternative of a -run pattern (other than
// '^$', which selects nothing on purpose) must match a Test or Fuzz
// function declared in the step's packages, and a -fuzz pattern must name
// exactly one fuzz function there. A pattern that matches nothing passes
// silently in CI, so a renamed or merged test would otherwise drop out of
// the step that was meant to run it.
func TestCIRunPatternsMatchTests(t *testing.T) {
	src, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	cmds := 0
	for _, cmd := range ciCommands(string(src)) {
		f := strings.Fields(cmd)
		if len(f) < 2 || f[0] != "go" || f[1] != "test" {
			continue
		}
		cmds++
		var run, fuzz string
		var pkgs []string
		for i := 2; i < len(f); i++ {
			arg := strings.Trim(f[i], "'")
			switch {
			case (arg == "-run" || arg == "-fuzz") && i+1 < len(f):
				i++
				if arg == "-run" {
					run = strings.Trim(f[i], "'")
				} else {
					fuzz = strings.Trim(f[i], "'")
				}
			case arg == "." || strings.HasPrefix(arg, "./"):
				pkgs = append(pkgs, arg)
			}
		}
		if len(pkgs) == 0 {
			t.Errorf("%q: no package arguments", cmd)
			continue
		}
		names := testFuncs(t, pkgs)
		if run != "" && run != "^$" {
			for _, alt := range alternatives(run) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%q: -run alternative %q: %v", cmd, alt, err)
					continue
				}
				if len(matching(re, names, "")) == 0 {
					t.Errorf("%q: -run alternative %q matches no Test or Fuzz function in %v", cmd, alt, pkgs)
				}
			}
		}
		if fuzz != "" {
			re, err := regexp.Compile(fuzz)
			if err != nil {
				t.Errorf("%q: -fuzz %q: %v", cmd, fuzz, err)
			} else if m := matching(re, names, "Fuzz"); len(m) != 1 {
				t.Errorf("%q: -fuzz %q matches %d fuzz functions %v, want exactly one", cmd, fuzz, len(m), m)
			}
		}
	}
	if cmds == 0 {
		t.Fatal("found no go test command in the CI workflow")
	}
}

// ciCommands returns the shell commands of every `run:` key in a workflow:
// an inline value, or the lines of a `|` block (one command each) or a `>`
// block (folded into one command).
func ciCommands(yml string) []string {
	var cmds []string
	lines := strings.Split(yml, "\n")
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		trimmed := strings.TrimLeft(line, " -")
		if !strings.HasPrefix(trimmed, "run:") {
			continue
		}
		val := strings.TrimSpace(strings.TrimPrefix(trimmed, "run:"))
		if val != "" && val[0] != '|' && val[0] != '>' {
			cmds = append(cmds, val)
			continue
		}
		indent := len(line) - len(strings.TrimLeft(line, " "))
		var block []string
		for i+1 < len(lines) {
			next := lines[i+1]
			if strings.TrimSpace(next) != "" && len(next)-len(strings.TrimLeft(next, " ")) <= indent {
				break
			}
			i++
			if s := strings.TrimSpace(next); s != "" {
				block = append(block, s)
			}
		}
		if strings.HasPrefix(val, ">") {
			cmds = append(cmds, strings.Join(block, " "))
		} else {
			cmds = append(cmds, block...)
		}
	}
	return cmds
}

// alternatives splits a regular expression at its top-level '|'.
func alternatives(re string) []string {
	var out []string
	depth, start := 0, 0
	for i, c := range re {
		switch c {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, re[start:i])
				start = i + 1
			}
		}
	}
	return append(out, re[start:])
}

// testFuncs returns the Test and Fuzz functions declared in the test files
// of the given package patterns ("." or "./dir", "/..." for a subtree).
func testFuncs(t *testing.T, pkgs []string) []string {
	t.Helper()
	var names []string
	for _, p := range pkgs {
		dir, tree := strings.CutSuffix(p, "/...")
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != dir && (!tree || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, dl := range f.Decls {
				if fd, ok := dl.(*ast.FuncDecl); ok && fd.Recv == nil &&
					(strings.HasPrefix(fd.Name.Name, "Test") || strings.HasPrefix(fd.Name.Name, "Fuzz")) {
					names = append(names, fd.Name.Name)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
	return names
}

// matching returns the names with the given prefix that re matches.
func matching(re *regexp.Regexp, names []string, prefix string) []string {
	var out []string
	for _, n := range names {
		if strings.HasPrefix(n, prefix) && re.MatchString(n) {
			out = append(out, n)
		}
	}
	return out
}
