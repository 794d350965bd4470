package analysis

import (
	"go/ast"
)

// Problint enforces the single-writer discipline of internal/obs/probe:
// probe counters are plain uint64s, racing by design, and stay honest
// only because exactly one goroutine ever writes a given probe struct
// and readers merge shards at quiescence points (DESIGN §9).
//
// Outside the probe package itself the analyzer reports:
//
//   - any write (assignment or ++/--) to a field of a probe-package
//     struct from a function not annotated //probe:writer — the
//     constructor-registered owner of that shard;
//   - any such write lexically inside a `go func(){…}` literal, even an
//     annotated one: an ad-hoc goroutine is never the registered
//     single writer;
//   - any call of a probe type's Merge method from a function not
//     annotated //probe:merge — merging is legal only while the
//     writers are parked (end of run, or a barrier).
//
// Like guardlint, the analyzer skips _test.go files.
var Problint = &Analyzer{
	Name: "problint",
	Doc: "single-writer discipline for internal/obs/probe counters\n\n" +
		"Probe fields are written only inside //probe:writer functions and\n" +
		"never from go-statement literals; probe Merge is called only from\n" +
		"//probe:merge functions (quiescence points).",
	// Every package that writes or merges internal/obs/probe counters;
	// the probe package owns its representation.
	Include: []string{"internal/des/...", "internal/pdes", "internal/sim", "internal/mobile", "internal/obs/..."},
	Exclude: []string{"internal/obs/probe"},
	Run:     runProblint,
}

func runProblint(pass *Pass) error {
	if pass.Pkg != nil && pathIs(pass.Pkg.Path(), "probe") {
		return nil // the probe package owns its own representation
	}
	an := collectAnnotations(pass)
	an.report(pass, "probe")
	p := &problintPass{pass: pass, an: an}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var fa *FuncAnnot
			if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
				fa = an.funcs[obj]
			}
			p.check(fd.Body, fa, false)
		}
	}
	return nil
}

type problintPass struct {
	pass *Pass
	an   *Annotations
}

// check walks one function region. cur is the innermost enclosing
// function's annotation (nil when unannotated); inGo is true inside a
// go-statement literal.
func (p *problintPass) check(n ast.Node, cur *FuncAnnot, inGo bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.GoStmt:
			if lit, ok := m.Call.Fun.(*ast.FuncLit); ok {
				for _, arg := range m.Call.Args {
					p.check(arg, cur, inGo)
				}
				p.check(lit.Body, p.an.lits[lit], true)
				return false
			}
		case *ast.FuncLit:
			p.check(m.Body, p.an.lits[m], inGo)
			return false
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				p.checkWrite(lhs, cur, inGo)
			}
		case *ast.IncDecStmt:
			p.checkWrite(m.X, cur, inGo)
		case *ast.CallExpr:
			p.checkMerge(m, cur)
		}
		return true
	})
}

// checkWrite reports a probe-field assignment target outside the
// sanctioned writer.
func (p *problintPass) checkWrite(e ast.Expr, cur *FuncAnnot, inGo bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if obj := objectOf(p.pass.TypesInfo, x.Sel); obj != nil && obj.Pkg() != nil && pathIs(obj.Pkg().Path(), "probe") {
				switch {
				case inGo:
					p.pass.Reportf(x.Sel.Pos(), "probe field %q written inside a go-statement literal — an ad-hoc goroutine is never the registered single writer (//probe:writer)", x.Sel.Name)
				case cur == nil || !cur.ProbeWriter:
					p.pass.Reportf(x.Sel.Pos(), "write to probe field %q outside a //probe:writer function (probes are single-writer; see internal/obs/probe)", x.Sel.Name)
				}
				return
			}
			e = x.X
		default:
			return
		}
	}
}

// checkMerge reports probe Merge calls outside //probe:merge functions.
func (p *problintPass) checkMerge(call *ast.CallExpr, cur *FuncAnnot) {
	path, _, method, ok := methodCall(p.pass.TypesInfo, call)
	if !ok || !pathIs(path, "probe") || method != "Merge" {
		return
	}
	if cur == nil || !cur.ProbeMerge {
		p.pass.Reportf(call.Pos(), "probe Merge outside a //probe:merge function — shards merge only at quiescence points")
	}
}
