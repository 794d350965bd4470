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
// scope matches; there are no flags and no environment variables.
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
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %s: %v\n", path, err)
		return 1
	}
	// simlint exports no facts, but cmd/go requires the facts file to
	// exist before it will cache or consume the result.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		// A dependency analyzed only for facts: nothing to do.
		return 0
	}

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
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 1
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
			return 0
		}
		fmt.Fprintf(os.Stderr, "simlint: typecheck %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	findings, err := analysis.RunAnalyzers(analyzers, fset, files, pkg, info)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s: simlint/%s: %s\n", f.Position, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		// Unit-checker convention: 2 distinguishes "diagnostics found"
		// from operational failure.
		return 2
	}
	return 0
}
