// Package analysis is simlint: a suite of static analyzers that enforce
// the repository's determinism, pool-discipline, lock and lane
// contracts at compile time.
//
// The reproduction's core claim — bit-identical N_tot curves across
// seeds, worker counts and instrumentation — rests on contracts that
// ordinary tests only probe at runtime and at small scale: no wall-clock
// or ambient randomness inside simulation packages (internal/rng is the
// single sanctioned entropy source), no use of a pooled message after
// it was recycled, no guarded field touched without its mutex, and no
// lane handler reaching past its own shard. Each analyzer here turns one
// of those contracts into a build-breaking diagnostic, and each is kept
// because it reports something no test, -race run or go vet does
// (DESIGN §6.1).
//
// The package deliberately mirrors the golang.org/x/tools/go/analysis
// API (Analyzer, Pass, Diagnostic) but is implemented on the standard
// library only (go/ast, go/types, go/importer), so the repository keeps
// its zero-dependency go.mod and the gate runs in offline builds.
// cmd/simlint drives these analyzers as a `go vet -vettool`
// unit-checker.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check. It is a stdlib mirror of
// golang.org/x/tools/go/analysis.Analyzer: Run inspects a single
// type-checked package through a Pass and reports diagnostics.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow simlint/<name> suppression directives.
	Name string
	// Doc is a one-paragraph description of the contract enforced.
	Doc string
	// Include and Exclude are the package patterns (see matchPattern)
	// the repository is gated with: the analyzer runs over a package
	// that matches an Include pattern and no Exclude pattern. Contracts
	// differ per layer — internal/des owns the event pool it polices
	// for everyone else, internal/mobile owns the message pool — so each
	// analyzer carries its own scope.
	Include, Exclude []string
	// Run performs the analysis on one package.
	Run func(*Pass) error
}

// Applies reports whether the analyzer is in scope for the package path.
func (a *Analyzer) Applies(pkgPath string) bool {
	for _, pat := range a.Exclude {
		if matchPattern(pat, pkgPath) {
			return false
		}
	}
	for _, pat := range a.Include {
		if matchPattern(pat, pkgPath) {
			return true
		}
	}
	return false
}

// matchPattern matches a package path against one scope pattern:
//
//   - every package
//     internal/sim       the package whose path is, or ends with, the
//     pattern ("mobickpt/internal/sim" matches)
//     internal/des/...   that package and its whole subtree
func matchPattern(pat, path string) bool {
	if pat == "*" {
		return true
	}
	base, subtree := strings.CutSuffix(pat, "/...")
	if path == base || strings.HasSuffix(path, "/"+base) {
		return true
	}
	if subtree {
		if strings.HasPrefix(path, base+"/") || strings.Contains(path, "/"+base+"/") {
			return true
		}
	}
	return false
}

// A Pass provides one analyzer with one type-checked package and
// collects its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diagnostics []Diagnostic
}

// A Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Finding is a resolved diagnostic: a Diagnostic plus its printable
// position, as produced by RunAnalyzers after suppression filtering.
type Finding struct {
	Position token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Position, f.Analyzer, f.Message)
}

// All returns the simlint suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Detlint, Poollint, Guardlint, Lanelint}
}

// NewInfo allocates the types.Info maps the analyzers rely on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// RunAnalyzers runs each analyzer over the package held by the template
// pass fields (Fset, Files, Pkg, TypesInfo), drops findings suppressed by
// //lint:allow directives, and returns the surviving findings sorted by
// position. Malformed suppression directives are themselves reported as
// findings of the pseudo-analyzer "allow-directive".
func RunAnalyzers(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Finding, error) {
	sup, bad := suppressionIndex(fset, files)

	var findings []Finding
	for _, d := range bad {
		findings = append(findings, Finding{Position: fset.Position(d.Pos), Analyzer: d.Analyzer, Message: d.Message})
	}
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
		if err := runProtected(a, pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		for _, d := range pass.diagnostics {
			pos := fset.Position(d.Pos)
			if sup.suppressed(a.Name, pos) {
				continue
			}
			findings = append(findings, Finding{Position: pos, Analyzer: d.Analyzer, Message: d.Message})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Position, findings[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return findings, nil
}

// runProtected runs one analyzer, converting a panic into an error that
// names the analyzer instead of killing the whole gate: one broken
// check must not take down the others mid-refactor.
func runProtected(a *Analyzer, pass *Pass) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("internal error (panic): %v", r)
		}
	}()
	return a.Run(pass)
}

// ---- shared type-resolution helpers used by the analyzers ----

// pathIs reports whether the package path refers to the package named
// short: either exactly (fixture packages are named "mobile", "des", …)
// or as the last path segment ("mobickpt/internal/mobile").
func pathIs(path, short string) bool {
	return path == short || strings.HasSuffix(path, "/"+short)
}

// pkgFunc resolves call as a package-level function call p.F(...) and
// returns the package path and function name.
func pkgFunc(info *types.Info, call *ast.CallExpr) (path, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// methodCall resolves call as a method call x.M(...) and returns the
// receiver's defining package path, the receiver type name (or the
// interface name for interface calls) and the method name.
func methodCall(info *types.Info, call *ast.CallExpr) (recvPath, recvType, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", "", false
	}
	s, hasSel := info.Selections[sel]
	if !hasSel || s.Kind() != types.MethodVal {
		return "", "", "", false
	}
	t := s.Recv()
	for {
		if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
			t = p.Elem()
			continue
		}
		break
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", "", "", false
	}
	return obj.Pkg().Path(), obj.Name(), sel.Sel.Name, true
}

// namedType unwraps pointers and aliases and reports the defining
// package path and name of t's named type, if any.
func namedType(t types.Type) (path, name string, ok bool) {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Alias:
			t = types.Unalias(u)
			continue
		}
		break
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", "", false
	}
	return obj.Pkg().Path(), obj.Name(), true
}

// objectOf returns the types.Object an identifier denotes (uses or defs).
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}
