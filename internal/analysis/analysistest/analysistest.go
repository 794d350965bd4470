// Package analysistest runs simlint analyzers over fixture packages, in
// the style of golang.org/x/tools/go/analysis/analysistest but built on
// the standard library only.
//
// Fixtures live under <srcRoot>/<pkgpath>/ (conventionally
// testdata/src/<pkgpath>). Every line that should trigger a diagnostic
// carries a trailing comment of the form
//
//	// want "regexp" ["regexp" ...]
//
// or, where the line's own trailing comment is the directive under test,
// a block comment before it: /* want "regexp" */ //guard:mu,dirMu. The
// harness fails the test on any unmatched expectation or any
// unexpected diagnostic. Fixture imports resolve against sibling fixture
// packages first (so stubs named "mobile", "des", "protocol" stand in
// for the real packages) and against the standard library via compiler
// export data otherwise.
package analysistest

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mobickpt/internal/analysis"
)

// Run loads each fixture package under srcRoot and checks a's
// diagnostics against the // want comments.
func Run(t *testing.T, srcRoot string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	for _, path := range pkgpaths {
		lp, findings, err := analyze(srcRoot, a, path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		check(t, path, lp, findings)
	}
}

// analyze loads fixture path and runs a over it.
func analyze(srcRoot string, a *analysis.Analyzer, path string) (*fixture, []analysis.Finding, error) {
	l := loaderFor(srcRoot)
	l.mu.Lock()
	defer l.mu.Unlock()
	lp, err := l.load(path)
	if err != nil {
		return nil, nil, err
	}
	findings, err := analysis.RunAnalyzers([]*analysis.Analyzer{a}, lp.Fset, lp.Files, lp.Pkg, lp.Info)
	return lp, findings, err
}

// check compares findings against the fixture's want comments.
func check(t *testing.T, path string, lp *fixture, findings []analysis.Finding) {
	t.Helper()
	wants, err := collectWants(lp.Fset, lp.Files)
	if err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Position.Filename, f.Position.Line)
		matched := false
		rest := wants[key][:0]
		for _, w := range wants[key] {
			if !matched && w.MatchString(f.Message) {
				matched = true
				continue
			}
			rest = append(rest, w)
		}
		wants[key] = rest
		if !matched {
			t.Errorf("%s: unexpected diagnostic at %s: %s", path, f.Position, f.Message)
		}
	}
	keys := make([]string, 0, len(wants))
	for k, ws := range wants {
		if len(ws) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, w := range wants[k] {
			t.Errorf("%s: no diagnostic at %s matching %q", path, k, w)
		}
	}
}

// collectWants parses every `// want "re" ...` or `/* want "re" ... */`
// comment into per-line regexp expectations keyed by "file:line".
func collectWants(fset *token.FileSet, files []*ast.File) (map[string][]*regexp.Regexp, error) {
	wants := make(map[string][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, isLine := strings.CutPrefix(c.Text, "//")
				if !isLine {
					text = strings.TrimSuffix(strings.TrimPrefix(c.Text, "/*"), "*/")
				}
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				rest := strings.TrimSpace(strings.TrimPrefix(text, "want"))
				for rest != "" {
					if rest[0] != '"' {
						return nil, fmt.Errorf("%s: malformed want comment %q", pos, c.Text)
					}
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						return nil, fmt.Errorf("%s: malformed want comment %q: %v", pos, c.Text, err)
					}
					lit, err := strconv.Unquote(q)
					if err != nil {
						return nil, fmt.Errorf("%s: malformed want comment %q: %v", pos, c.Text, err)
					}
					re, err := regexp.Compile(lit)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want regexp %q: %v", pos, lit, err)
					}
					wants[key] = append(wants[key], re)
					rest = strings.TrimSpace(rest[len(q):])
				}
			}
		}
	}
	return wants, nil
}

// ---- fixture loading ----

// fixture is one parsed and type-checked fixture package, ready for
// analysis.RunAnalyzers.
type fixture struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// loader resolves fixture and standard-library imports for one srcRoot.
// Standard-library packages are imported from compiler export data
// produced by `go list -export` (cached in the Go build cache, shared
// across the whole test process).
type loader struct {
	root string
	fset *token.FileSet

	mu       sync.Mutex
	fixtures map[string]*fixture
	exports  map[string]string // std import path -> export data file
	std      types.Importer
}

var (
	loadersMu sync.Mutex
	loaders   = make(map[string]*loader)
)

func loaderFor(root string) *loader {
	loadersMu.Lock()
	defer loadersMu.Unlock()
	if l, ok := loaders[root]; ok {
		return l
	}
	l := &loader{
		root:     root,
		fset:     token.NewFileSet(),
		fixtures: make(map[string]*fixture),
		exports:  make(map[string]string),
	}
	l.std = importer.ForCompiler(l.fset, "gc", l.lookupExport)
	loaders[root] = l
	return l
}

// load parses and type-checks the fixture package at <root>/<path>. It
// must be called with l.mu held; fixture dependencies recurse.
func (l *loader) load(path string) (*fixture, error) {
	if lp, ok := l.fixtures[path]; ok {
		return lp, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("fixture %s: %v", path, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("fixture %s: %v", path, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture %s: no Go files in %s", path, dir)
	}
	info := analysis.NewInfo()
	conf := types.Config{Importer: (*fixtureImporter)(l)}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("fixture %s: typecheck: %v", path, err)
	}
	lp := &fixture{Fset: l.fset, Files: files, Pkg: pkg, Info: info}
	l.fixtures[path] = lp
	return lp, nil
}

// fixtureImporter adapts loader to types.Importer: fixture-local paths
// first, the standard library second.
type fixtureImporter loader

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	l := (*loader)(fi)
	if st, err := os.Stat(filepath.Join(l.root, filepath.FromSlash(path))); err == nil && st.IsDir() {
		lp, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return lp.Pkg, nil
	}
	if err := l.ensureExport(path); err != nil {
		return nil, err
	}
	return l.std.Import(path)
}

// ensureExport makes export data for a standard-library package (and its
// dependency closure) available to the gc importer. Called with l.mu
// held (all loading runs under the loader lock).
func (l *loader) ensureExport(path string) error {
	if _, ok := l.exports[path]; ok {
		return nil
	}
	out, err := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Export", "--", path).Output()
	if err != nil {
		msg := ""
		if ee, isExit := err.(*exec.ExitError); isExit {
			msg = string(ee.Stderr)
		}
		return fmt.Errorf("go list -export %s: %v\n%s", path, err, msg)
	}
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for dec.More() {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err != nil {
			return fmt.Errorf("go list -export %s: %v", path, err)
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
	if _, ok := l.exports[path]; !ok {
		return fmt.Errorf("go list -export %s: no export data", path)
	}
	return nil
}

// lookupExport serves the gc importer. It runs inside l.load, so l.mu is
// already held; it must not re-lock.
func (l *loader) lookupExport(path string) (io.ReadCloser, error) {
	if _, ok := l.exports[path]; !ok {
		// A transitive dependency the closure walk missed; fetch it.
		if err := l.ensureExport(path); err != nil {
			return nil, err
		}
	}
	return os.Open(l.exports[path])
}
