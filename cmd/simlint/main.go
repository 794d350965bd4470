// Command simlint runs the repository's static analysis suite
// (internal/analysis, DESIGN §6) as a go vet tool:
//
//	go vet -vettool=$(command -v simlint) ./...
//
// It speaks the cmd/go unit-checker protocol and nothing else: it
// answers -flags with a JSON flag list, -V=full with a content-hashed
// version line (so the go command's vet cache invalidates when the tool
// changes), and is then invoked once per package — test variants
// included — with a vet.cfg JSON file naming the sources and the export
// data of every dependency. Each analyzer runs over the packages its own
// scope matches, one package at a time; there are no flags and no
// environment variables.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mobickpt/internal/analysis"
)

func main() {
	if args := os.Args[1:]; len(args) == 1 {
		switch {
		case args[0] == "-flags":
			fmt.Println("[]")
			return
		case strings.HasPrefix(args[0], "-V"):
			if err := printVersion(); err != nil {
				fmt.Fprintln(os.Stderr, "simlint:", err)
				os.Exit(1)
			}
			return
		case strings.HasSuffix(args[0], ".cfg"):
			os.Exit(runVetCfg(args[0]))
		}
	}
	fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(command -v simlint) [packages]")
	os.Exit(2)
}

// printVersion prints the tool identity for `simlint -V=full`. The go
// command uses the line verbatim as the vet-action cache key, so the
// line hashes the executable itself: rebuilding simlint with different
// analyzers invalidates every cached vet result. An executable that
// cannot be read has no identity to print — a constant would serve
// stale cached results for every later build.
func printVersion() error {
	path, err := os.Executable()
	if err != nil {
		return err
	}
	exe, err := os.Open(path)
	if err != nil {
		return err
	}
	defer exe.Close()
	h := sha256.New()
	if _, err := io.Copy(h, exe); err != nil {
		return fmt.Errorf("hashing %s: %w", path, err)
	}
	fmt.Printf("%s version devel buildID=%x\n", filepath.Base(os.Args[0]), h.Sum(nil))
	return nil
}

// vetConfig is the subset of the cmd/go vet.cfg schema simlint consumes:
// one package's sources plus the compiler export data of its dependency
// closure.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func runVetCfg(path string) int {
	found, err := vet(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 1
	}
	for _, f := range found {
		fmt.Fprintf(os.Stderr, "%s: simlint/%s: %s\n", f.Position, f.Analyzer, f.Message)
	}
	if len(found) > 0 {
		// Unit-checker convention: 2 distinguishes "diagnostics found"
		// from operational failure.
		return 2
	}
	return 0
}

// vet analyzes the package the vet.cfg at path describes and writes its
// facts file, empty: the analyzers export no facts, but cmd/go requires
// the file before it caches or consumes the result. A dependency cmd/go
// visits only for its facts (VetxOnly) is not analyzed.
func vet(path string) ([]analysis.Finding, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return nil, err
		}
	}
	if cfg.VetxOnly {
		return nil, nil
	}
	return analyze(&cfg)
}

// analyze runs the analyzers whose scope matches the package and returns
// their findings.
func analyze(cfg *vetConfig) ([]analysis.Finding, error) {
	// Test variants carry an " [pkg.test]" suffix, and an external test
	// package p_test is held to the contracts of the package p it tests.
	importPath, _, _ := strings.Cut(cfg.ImportPath, " ")
	scopePath := strings.TrimSuffix(importPath, "_test")
	var analyzers []*analysis.Analyzer
	for _, a := range analysis.All() {
		if a.Applies(scopePath) {
			analyzers = append(analyzers, a)
		}
	}
	if len(analyzers) == 0 {
		return nil, nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	imp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	info := analysis.NewInfo()
	pkg, err := (&types.Config{Importer: imp}).Check(importPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, nil
		}
		return nil, fmt.Errorf("typecheck %s: %v", cfg.ImportPath, err)
	}
	found, err := analysis.RunAnalyzers(analyzers, fset, files, pkg, info)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", cfg.ImportPath, err)
	}
	return found, nil
}
