package facs_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ciRunArg captures the pattern of a `-run` flag on a `go test`
// command line: single-quoted, double-quoted or bare.
var ciRunArg = regexp.MustCompile(`-run\s+(?:'([^']*)'|"([^"]*)"|([^\s'"]+))`)

// runnableNames returns every top-level Test, Example and Fuzz function
// declared in this module's test files — everything a `go test -run`
// pattern can select. Nested modules, testdata and hidden directories
// are not part of the module and are skipped.
func runnableNames(t *testing.T) []string {
	t.Helper()
	var names []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Example", "Fuzz"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					names = append(names, fn.Name.Name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestCIRunPatternsResolve keeps the CI workflow honest: a `-run`
// alternative that matches no test function passes silently, so a
// renamed or deleted test would quietly drop out of its CI gate. Every
// alternative must match at least one Test, Example or Fuzz function in
// the module; `^$` is the one deliberate match-nothing pattern (run
// benchmarks or fuzzers only).
func TestCIRunPatternsResolve(t *testing.T) {
	body, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	names := runnableNames(t)
	checked := 0
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.Contains(line, "go test") {
			continue
		}
		m := ciRunArg.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		pattern := m[1] + m[2] + m[3]
		if pattern == "^$" {
			continue
		}
		for _, alt := range strings.Split(pattern, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("ci.yml: -run %q: alternative %q does not compile: %v", pattern, alt, err)
				continue
			}
			matched := false
			for _, name := range names {
				if re.MatchString(name) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("ci.yml: -run %q: alternative %q matches no test function", pattern, alt)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("found no -run patterns in ci.yml")
	}
	t.Logf("checked %d -run alternatives against %d test functions", checked, len(names))
}
