package analysis

// Machine-readable concurrency-contract annotations.
//
// guardlint and lanelint are driven by directive comments on struct
// fields and functions. Like //go: directives they are written unspaced
// (gofmt keeps them attached) and an unrecognized spelling is reported
// rather than silently ignored:
//
//	//guard:mu              field is read and written only with mu, a
//	                        sibling sync.Mutex field, held
//	//guard:none <reason>   field is deliberately unguarded (atomic,
//	                        immutable after construction, externally
//	                        serialized, ...); the reason is mandatory
//	//locks:held mu         on a function or func literal: the caller
//	                        already holds the receiver's mu
//	//locks:quiescent <reason>
//	                        function runs only while the structure is
//	                        single-threaded (before goroutines start or
//	                        after they are joined); guards are moot
//	//lane:shard            slice field indexed by lane; each element is
//	                        owned by exactly one lane goroutine
//	//lane:stopped [reason] field or function legal only while every
//	                        lane is parked at a global barrier
//	//lane:handler          function runs on a lane goroutine
//
// A field directive goes in the field's doc or trailing comment; a
// function directive goes in the function's doc comment; a func-literal
// directive is the first comment inside the literal's body, before the
// first statement. //guard: and //locks:held name exactly one mutex; a
// list, or a form the grammar does not have (//locks:after), is reported.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"unicode"
)

// AnnotKind identifies one directive form.
type AnnotKind int

const (
	AnnotGuard       AnnotKind = iota // //guard:mu
	AnnotGuardNone                    // //guard:none <reason>
	AnnotHeld                         // //locks:held mu
	AnnotQuiescent                    // //locks:quiescent <reason>
	AnnotLaneShard                    // //lane:shard
	AnnotLaneStopped                  // //lane:stopped [reason]
	AnnotLaneHandler                  // //lane:handler
)

// Annot is one parsed annotation directive.
type Annot struct {
	Kind   AnnotKind
	Name   string // the mutex of a guard or held directive
	Reason string
}

// Family returns the directive namespace ("guard", "locks", "lane") so
// each analyzer can report only its own malformed directives.
func (a Annot) Family() string {
	switch a.Kind {
	case AnnotGuard, AnnotGuardNone:
		return "guard"
	case AnnotHeld, AnnotQuiescent:
		return "locks"
	default:
		return "lane"
	}
}

// ParseAnnot parses the text of one comment with the leading // removed.
// It returns ok=false when the comment is not an annotation directive at
// all (directives are unspaced, so prose like "// guard: ..." never
// matches) and err != nil when it is one but malformed.
func ParseAnnot(text string) (Annot, bool, error) {
	scheme, rest, found := strings.Cut(text, ":")
	if !found {
		return Annot{}, false, nil
	}
	switch scheme {
	case "guard", "locks", "lane":
	default:
		return Annot{}, false, nil
	}
	word, tail := cutWord(rest)
	switch scheme {
	case "guard":
		if word == "none" {
			if tail == "" {
				return Annot{}, true, fmt.Errorf("//guard:none needs a reason")
			}
			return Annot{Kind: AnnotGuardNone, Reason: tail}, true, nil
		}
		name := strings.TrimSpace(rest)
		if !isGoIdent(name) {
			return Annot{}, true, fmt.Errorf("//guard: bad mutex name %q (want //guard:mu, one mutex, or //guard:none <reason>)", name)
		}
		return Annot{Kind: AnnotGuard, Name: name}, true, nil
	case "locks":
		switch word {
		case "held":
			if !isGoIdent(tail) {
				return Annot{}, true, fmt.Errorf("//locks:held bad mutex name %q (want //locks:held mu, one mutex)", tail)
			}
			return Annot{Kind: AnnotHeld, Name: tail}, true, nil
		case "quiescent":
			if tail == "" {
				return Annot{}, true, fmt.Errorf("//locks:quiescent needs a reason")
			}
			return Annot{Kind: AnnotQuiescent, Reason: tail}, true, nil
		default:
			return Annot{}, true, fmt.Errorf("unknown //locks: directive %q (have held, quiescent)", word)
		}
	default: // lane
		switch word {
		case "shard":
			if tail != "" {
				return Annot{}, true, fmt.Errorf("//lane:shard takes no argument")
			}
			return Annot{Kind: AnnotLaneShard}, true, nil
		case "stopped":
			return Annot{Kind: AnnotLaneStopped, Reason: tail}, true, nil
		case "handler":
			if tail != "" {
				return Annot{}, true, fmt.Errorf("//lane:handler takes no argument")
			}
			return Annot{Kind: AnnotLaneHandler}, true, nil
		default:
			return Annot{}, true, fmt.Errorf("unknown //lane: directive %q (have shard, stopped, handler)", word)
		}
	}
}

// cutWord splits rest into its first whitespace-delimited word and the
// trimmed remainder.
func cutWord(rest string) (word, tail string) {
	rest = strings.TrimSpace(rest)
	if i := strings.IndexFunc(rest, unicode.IsSpace); i >= 0 {
		return rest[:i], strings.TrimSpace(rest[i:])
	}
	return rest, ""
}

func isGoIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		if r == '_' || unicode.IsLetter(r) || (i > 0 && unicode.IsDigit(r)) {
			continue
		}
		return false
	}
	return true
}

// ---- collection ----

// FieldAnnot is the merged annotation state of one struct field.
type FieldAnnot struct {
	Pos         token.Pos
	Guard       string // //guard:mu: reads and writes need mu held
	None        bool   // //guard:none
	LaneShard   bool
	LaneStopped bool
}

// Guarded reports whether the field carries any //guard: directive
// (including an explicit //guard:none).
func (f *FieldAnnot) Guarded() bool { return f.None || f.Guard != "" }

// FuncAnnot is the merged annotation state of one function or literal.
type FuncAnnot struct {
	Pos         token.Pos
	Held        string // //locks:held mu
	Quiescent   bool
	LaneHandler bool
	LaneStopped bool
}

type annotErr struct {
	pos    token.Pos
	family string
	msg    string
}

// structField records one named field for the per-struct completeness
// check in guardlint.
type structField struct {
	obj     types.Object
	name    string
	pos     token.Pos
	isMutex bool
}

type structInfo struct {
	fields []structField
}

// Annotations is the package-wide annotation index built by
// collectAnnotations. Field and function keys are types.Objects, so
// lookups work from any use site in the package; func literals are
// keyed by their AST node.
type Annotations struct {
	fields  map[types.Object]*FieldAnnot
	funcs   map[types.Object]*FuncAnnot
	lits    map[*ast.FuncLit]*FuncAnnot
	structs []structInfo
	errs    []annotErr
}

// collectAnnotations builds the annotation index for one package.
func collectAnnotations(pass *Pass) *Annotations {
	a := &Annotations{
		fields: make(map[types.Object]*FieldAnnot),
		funcs:  make(map[types.Object]*FuncAnnot),
		lits:   make(map[*ast.FuncLit]*FuncAnnot),
	}
	for _, f := range pass.Files {
		file := f
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				a.collectFuncDecl(pass, n)
			case *ast.StructType:
				a.collectStruct(pass, n)
			case *ast.FuncLit:
				a.collectFuncLit(pass, file, n)
			}
			return true
		})
	}
	return a
}

// report emits the malformed-directive diagnostics belonging to the
// given namespaces (each analyzer owns its own families, so a package
// analyzed by both never reports a parse error twice).
func (a *Annotations) report(pass *Pass, families ...string) {
	for _, e := range a.errs {
		for _, fam := range families {
			if e.family == fam {
				pass.Reportf(e.pos, "%s", e.msg)
				break
			}
		}
	}
}

func (a *Annotations) errf(pos token.Pos, family, format string, args ...any) {
	a.errs = append(a.errs, annotErr{pos: pos, family: family, msg: fmt.Sprintf(format, args...)})
}

// commentAnnots parses every directive in a comment group.
func (a *Annotations) commentAnnots(cg *ast.CommentGroup) []Annot {
	if cg == nil {
		return nil
	}
	var out []Annot
	for _, c := range cg.List {
		text, isLine := strings.CutPrefix(c.Text, "//")
		if !isLine {
			continue
		}
		an, ok, err := ParseAnnot(text)
		if !ok {
			continue
		}
		if err != nil {
			fam, _, _ := strings.Cut(text, ":")
			a.errf(c.Pos(), fam, "%v", err)
			continue
		}
		out = append(out, an)
	}
	return out
}

// isMutexType reports whether t is sync.Mutex, the one mutex type the
// contracts name.
func isMutexType(t types.Type) bool {
	path, name, ok := namedType(t)
	return ok && path == "sync" && name == "Mutex"
}

// collectStruct indexes the field annotations of one struct literal.
func (a *Annotations) collectStruct(pass *Pass, st *ast.StructType) {
	if st.Fields == nil {
		return
	}
	// First pass: which sibling fields are mutexes (guard names must
	// resolve to one).
	mutexes := make(map[string]bool)
	var si structInfo
	for _, fld := range st.Fields.List {
		for _, name := range fld.Names {
			if name.Name == "_" {
				continue // padding: not addressable, nothing to guard
			}
			obj := pass.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			isMu := isMutexType(obj.Type())
			if isMu {
				mutexes[name.Name] = true
			}
			si.fields = append(si.fields, structField{obj: obj, name: name.Name, pos: name.Pos(), isMutex: isMu})
		}
	}
	a.structs = append(a.structs, si)

	for _, fld := range st.Fields.List {
		annots := append(a.commentAnnots(fld.Doc), a.commentAnnots(fld.Comment)...)
		if len(annots) == 0 || len(fld.Names) == 0 {
			continue
		}
		fa := &FieldAnnot{Pos: fld.Pos()}
		for _, an := range annots {
			switch an.Kind {
			case AnnotGuard:
				if fa.Guarded() {
					a.errf(fld.Pos(), "guard", "duplicate //guard: directive on field %s", fld.Names[0].Name)
					continue
				}
				if !mutexes[an.Name] {
					a.errf(fld.Pos(), "guard", "//guard:%s on field %s: %q is not a sibling sync.Mutex field", an.Name, fld.Names[0].Name, an.Name)
				}
				fa.Guard = an.Name
			case AnnotGuardNone:
				if fa.Guarded() {
					a.errf(fld.Pos(), "guard", "duplicate //guard: directive on field %s", fld.Names[0].Name)
					continue
				}
				fa.None = true
			case AnnotLaneShard:
				fa.LaneShard = true
			case AnnotLaneStopped:
				fa.LaneStopped = true
			default:
				a.errf(fld.Pos(), an.Family(), "directive not applicable to a struct field")
			}
		}
		for _, name := range fld.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil {
				a.fields[obj] = fa
			}
		}
	}
}

// collectFuncDecl indexes the doc-comment annotations of one function.
func (a *Annotations) collectFuncDecl(pass *Pass, fd *ast.FuncDecl) {
	annots := a.commentAnnots(fd.Doc)
	if len(annots) == 0 {
		return
	}
	obj := pass.TypesInfo.Defs[fd.Name]
	if obj == nil {
		return
	}
	fa := &FuncAnnot{Pos: fd.Pos()}
	for _, an := range annots {
		switch an.Kind {
		case AnnotHeld:
			recv := receiverStruct(obj)
			if recv == nil {
				a.errf(fd.Pos(), "locks", "//locks:held on %s: only methods can declare a caller-held receiver mutex", fd.Name.Name)
				continue
			}
			if fa.Held != "" {
				a.errf(fd.Pos(), "locks", "duplicate //locks:held directive on %s", fd.Name.Name)
				continue
			}
			if !structHasMutex(recv, an.Name) {
				a.errf(fd.Pos(), "locks", "//locks:held on %s: receiver has no sync.Mutex field %q", fd.Name.Name, an.Name)
			}
			fa.Held = an.Name
		case AnnotQuiescent:
			fa.Quiescent = true
		case AnnotLaneHandler:
			fa.LaneHandler = true
		case AnnotLaneStopped:
			fa.LaneStopped = true
		default:
			a.errf(fd.Pos(), an.Family(), "directive not applicable to a function declaration")
		}
	}
	a.funcs[obj] = fa
}

// collectFuncLit indexes the leading-comment annotations of a func
// literal: comments inside the body, before the first statement.
func (a *Annotations) collectFuncLit(pass *Pass, file *ast.File, lit *ast.FuncLit) {
	if lit.Body == nil {
		return
	}
	bound := lit.Body.Rbrace
	if len(lit.Body.List) > 0 {
		bound = lit.Body.List[0].Pos()
	}
	var fa *FuncAnnot
	for _, cg := range file.Comments {
		if cg.Pos() <= lit.Body.Lbrace || cg.End() >= bound {
			continue
		}
		for _, an := range a.commentAnnots(cg) {
			if fa == nil {
				fa = &FuncAnnot{Pos: lit.Pos()}
			}
			switch an.Kind {
			case AnnotHeld:
				if fa.Held != "" {
					a.errf(cg.Pos(), "locks", "duplicate //locks:held directive on a func literal")
					continue
				}
				fa.Held = an.Name
			case AnnotQuiescent:
				fa.Quiescent = true
			case AnnotLaneHandler:
				fa.LaneHandler = true
			case AnnotLaneStopped:
				fa.LaneStopped = true
			default:
				a.errf(cg.Pos(), an.Family(), "directive not applicable to a func literal")
			}
		}
	}
	if fa != nil {
		a.lits[lit] = fa
	}
}

// receiverStruct resolves a method object's receiver base struct.
func receiverStruct(obj types.Object) *types.Struct {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	return st
}

func structHasMutex(st *types.Struct, name string) bool {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == name && isMutexType(f.Type()) {
			return true
		}
	}
	return false
}

// isTestFile reports whether the file is a _test.go file. The contract
// analyzers (guardlint, lanelint) skip test files: tests
// legitimately poke guarded state while the structure is quiescent, and
// the runtime race detector already covers them.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}
