package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Guardlint enforces the //guard: field contracts by tracking the set
// of held mutexes through each function body.
//
// The tracking is intra-procedural abstract interpretation over the
// AST: a linear walk of each statement list carries a held-lock set,
// branches fork the set and intersect it where control flow rejoins,
// and `defer x.mu.Unlock()` keeps the lock held to the end of the
// function. On top of the per-access checks the analyzer flags a second
// Lock of an already-held mutex and any path that leaves a function with
// a lock held and no deferred unlock. Every contract names one
// sync.Mutex: the tree never takes two locks together, so there is no
// acquisition order to check.
//
// Deliberate scope limits, documented rather than guessed at: guards
// resolve only for fields reached as <ident>.<field> (one level — every
// annotated struct in this repository is accessed that way); func
// literals start from an empty lock set unless they carry their own
// //locks:held leading comment, because the goroutine or callback they
// become does not inherit the creating frame's locks; and locals
// initialized from a composite literal in the same function are exempt
// (nothing else can see the object yet).
var Guardlint = &Analyzer{
	Name: "guardlint",
	Doc: "lock-state tracking for //guard: annotated fields\n\n" +
		"Reads and writes of a //guard:mu field need the sync.Mutex mu held.\n" +
		"Also flags double-Lock, defer-less unlock paths and //locks:held\n" +
		"call sites whose caller does not hold the mutex, and keeps\n" +
		"guard-annotated structs fully annotated.",
	// Where //guard: contracts live: the live cluster, the PDES lane
	// mailboxes, internal/mlog and the sequential engine's pipeline to
	// its protocol side (all //guard:none — externally serialized or
	// owned by one named goroutine).
	Include: []string{"internal/live", "internal/pdes", "internal/mlog", "internal/sim"},
	Run:     runGuardlint,
}

func runGuardlint(pass *Pass) error {
	an := collectAnnotations(pass)
	an.report(pass, "guard", "locks")
	guardCompleteness(pass, an)
	g := &guardlintPass{pass: pass, an: an}
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
			g.checkFunc(fd.Body, fa)
		}
	}
	return nil
}

// guardCompleteness reports unannotated fields of structs that have
// opted into guarding: once any field carries a //guard: directive the
// whole struct is a machine-readable contract, and a silent new field
// would be a hole in it. Mutex fields themselves are exempt.
func guardCompleteness(pass *Pass, an *Annotations) {
	for _, si := range an.structs {
		annotated := false
		for _, f := range si.fields {
			if fa := an.fields[f.obj]; fa != nil && fa.Guarded() {
				annotated = true
				break
			}
		}
		if !annotated {
			continue
		}
		for _, f := range si.fields {
			if f.isMutex {
				continue
			}
			if fa := an.fields[f.obj]; fa == nil || !fa.Guarded() {
				pass.Reportf(f.pos, "field %q has no //guard: annotation but its struct declares guarded fields (use //guard:<mu> or //guard:none <reason>)", f.name)
			}
		}
	}
}

// lockKey identifies one tracked mutex: the root identifier it hangs
// off plus the field name. A nil root is the //locks:held wildcard —
// the caller holds *some* instance's mutex of that name.
type lockKey struct {
	root types.Object
	name string
}

type heldLock struct {
	deferred bool // a matching defer Unlock exists
	external bool // from //locks:held: the caller's lock, not ours
}

type lockState map[lockKey]heldLock

func (st lockState) clone() lockState {
	out := make(lockState, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

// held reports whether the named mutex is held for root, either exactly
// or through a //locks:held wildcard.
func (st lockState) held(root types.Object, name string) bool {
	if _, ok := st[lockKey{root, name}]; ok {
		return true
	}
	_, ok := st[lockKey{nil, name}]
	return ok
}

// intersect keeps only locks held on every joined path. A nil state is
// an unreachable path (it ended in return or panic) and does not
// constrain the join; if every path is dead the join is dead too.
func intersect(states ...lockState) lockState {
	live := states[:0:0]
	for _, st := range states {
		if st != nil {
			live = append(live, st)
		}
	}
	if len(live) == 0 {
		return nil
	}
	out := live[0].clone()
	for _, st := range live[1:] {
		for k, v := range out {
			w, ok := st[k]
			if !ok {
				delete(out, k)
				continue
			}
			v.deferred = v.deferred && w.deferred
			out[k] = v
		}
	}
	return out
}

type guardlintPass struct {
	pass *Pass
	an   *Annotations
}

// litWork queues a func literal for its own walk.
type litWork struct {
	lit *ast.FuncLit
}

// guardWalker walks one function body.
type guardWalker struct {
	g     *guardlintPass
	fresh map[types.Object]bool
	lits  []litWork
}

// checkFunc analyzes one function body. fa may be nil.
func (g *guardlintPass) checkFunc(body *ast.BlockStmt, fa *FuncAnnot) {
	w := &guardWalker{g: g, fresh: make(map[types.Object]bool)}
	if fa != nil && fa.Quiescent {
		// Single-threaded phase: guards are vacuously satisfied, but
		// goroutines and callbacks created here still escape it.
		w.collectLits(body)
	} else {
		st := make(lockState)
		if fa != nil && fa.Held != "" {
			st[lockKey{nil, fa.Held}] = heldLock{external: true}
		}
		st = w.stmts(body.List, st)
		w.checkExit(st, body.End())
	}
	for _, lw := range w.lits {
		g.checkFunc(lw.lit.Body, g.an.lits[lw.lit])
	}
}

// collectLits gathers every func literal under n without checking n
// itself (used for //locks:quiescent bodies).
func (w *guardWalker) collectLits(n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		if lit, ok := m.(*ast.FuncLit); ok {
			w.lits = append(w.lits, litWork{lit: lit})
			return false
		}
		return true
	})
}

// checkExit reports locks still held, without a deferred unlock, at a
// return or at the end of the function body.
func (w *guardWalker) checkExit(st lockState, pos token.Pos) {
	var names []string
	for k, v := range st {
		if v.deferred || v.external {
			continue
		}
		names = append(names, w.display(k))
	}
	sort.Strings(names)
	for _, n := range names {
		w.g.pass.Reportf(pos, "%s is still locked at function exit and has no deferred unlock", n)
	}
}

func (w *guardWalker) display(k lockKey) string {
	if k.root == nil {
		return k.name
	}
	return k.root.Name() + "." + k.name
}

func (w *guardWalker) stmts(list []ast.Stmt, st lockState) lockState {
	for _, s := range list {
		if st == nil {
			return nil // unreachable after a return or panic
		}
		st = w.stmt(s, st)
	}
	return st
}

func (w *guardWalker) stmt(s ast.Stmt, st lockState) lockState {
	if st == nil {
		return nil
	}
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if done := w.lockCall(call, st, false); done {
				return st
			}
			if w.isPanic(call) {
				// The process is dying: whatever is held stays held, and
				// nothing after this path rejoins the live control flow.
				w.scanReads(s.X, st)
				return nil
			}
		}
		w.scanReads(s.X, st)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.scanReads(r, st)
		}
		for _, l := range s.Lhs {
			w.scanWrite(l, st)
		}
		w.trackFresh(s)
	case *ast.IncDecStmt:
		w.scanWrite(s.X, st)
	case *ast.DeferStmt:
		if done := w.lockCall(s.Call, st, true); done {
			return st
		}
		w.scanReads(s.Call, st)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.scanReads(r, st)
		}
		w.checkExit(st, s.Pos())
		return nil
	case *ast.GoStmt:
		// Arguments are evaluated on the spawning goroutine, with its
		// locks; the function body runs elsewhere, with none.
		w.scanReads(s.Call, st)
	case *ast.SendStmt:
		w.scanReads(s.Chan, st)
		w.scanReads(s.Value, st)
	case *ast.IfStmt:
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		w.scanReads(s.Cond, st)
		thenSt := w.stmts(s.Body.List, st.clone())
		elseSt := st.clone()
		if s.Else != nil {
			elseSt = w.stmt(s.Else, elseSt)
		}
		return intersect(thenSt, elseSt)
	case *ast.BlockStmt:
		return w.stmts(s.List, st)
	case *ast.ForStmt:
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		if s.Cond != nil {
			w.scanReads(s.Cond, st)
		}
		body := w.stmts(s.Body.List, st.clone())
		if s.Post != nil {
			w.stmt(s.Post, body)
		}
		return st
	case *ast.RangeStmt:
		w.scanReads(s.X, st)
		if s.Key != nil {
			w.scanWrite(s.Key, st)
		}
		if s.Value != nil {
			w.scanWrite(s.Value, st)
		}
		w.stmts(s.Body.List, st.clone())
		return st
	case *ast.SwitchStmt:
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		if s.Tag != nil {
			w.scanReads(s.Tag, st)
		}
		return w.clauses(s.Body, st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		w.stmt(s.Assign, st)
		return w.clauses(s.Body, st)
	case *ast.SelectStmt:
		results := []lockState{st}
		for _, cc := range s.Body.List {
			comm := cc.(*ast.CommClause)
			cs := st.clone()
			if comm.Comm != nil {
				cs = w.stmt(comm.Comm, cs)
			}
			results = append(results, w.stmts(comm.Body, cs))
		}
		return intersect(results...)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scanReads(v, st)
					}
					w.trackFreshSpec(vs)
				}
			}
		}
	}
	return st
}

// clauses walks switch/type-switch case bodies, rejoining with the
// entry state (a missing default keeps everything the entry held).
func (w *guardWalker) clauses(body *ast.BlockStmt, st lockState) lockState {
	results := []lockState{st}
	for _, cc := range body.List {
		c := cc.(*ast.CaseClause)
		for _, e := range c.List {
			w.scanReads(e, st)
		}
		results = append(results, w.stmts(c.Body, st.clone()))
	}
	return intersect(results...)
}

// isPanic reports whether call is the builtin panic.
func (w *guardWalker) isPanic(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, builtin := objectOf(w.g.pass.TypesInfo, id).(*types.Builtin)
	return builtin
}

// lockCall recognizes root.mutex.{Lock,Unlock}() and
// updates st. It returns true when the call was a lock operation (the
// caller then skips ordinary expression scanning).
func (w *guardWalker) lockCall(call *ast.CallExpr, st lockState, deferred bool) bool {
	root, name, op, ok := w.g.lockOp(call)
	if !ok {
		return false
	}
	key := lockKey{root, name}
	switch op {
	case "lock":
		if deferred {
			return true // defer mu.Lock() is nonsense; leave it to vet
		}
		if st.held(root, name) {
			w.g.pass.Reportf(call.Pos(), "%s locked while already held (deadlock)", w.display(key))
			return true
		}
		st[key] = heldLock{}
	case "unlock":
		if deferred {
			if h, ok := st[key]; ok {
				h.deferred = true
				st[key] = h
			} else if h, ok := st[lockKey{nil, name}]; ok {
				h.deferred = true
				st[lockKey{nil, name}] = h
			}
			return true
		}
		delete(st, key)
		delete(st, lockKey{nil, name})
	}
	return true
}

// lockOp resolves call as <ident>.<mutexField>.<Lock|Unlock>().
func (g *guardlintPass) lockOp(call *ast.CallExpr) (root types.Object, name, op string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", "", false
	}
	switch sel.Sel.Name {
	case "Lock":
		op = "lock"
	case "Unlock":
		op = "unlock"
	default:
		return nil, "", "", false
	}
	inner, isSel := sel.X.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", "", false
	}
	fieldObj := objectOf(g.pass.TypesInfo, inner.Sel)
	if fieldObj == nil || !isMutexType(fieldObj.Type()) {
		return nil, "", "", false
	}
	rootObj := rootIdentObj(g.pass.TypesInfo, inner.X)
	if rootObj == nil {
		return nil, "", "", false
	}
	return rootObj, inner.Sel.Name, op, true
}

// rootIdentObj unwraps parens and derefs to the base identifier.
func rootIdentObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			return objectOf(info, x)
		default:
			return nil
		}
	}
}

// scanReads checks every guarded-field access and //locks:held call
// under e as a read, queueing func literals for their own walk.
func (w *guardWalker) scanReads(e ast.Expr, st lockState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.lits = append(w.lits, litWork{lit: n})
			return false
		case *ast.SelectorExpr:
			w.checkAccess(n, st, false)
		case *ast.CallExpr:
			w.checkCallContract(n, st)
		}
		return true
	})
}

// scanWrite walks the spine of an assignment target: each annotated
// field on the path to the root is a write; subscripts hanging off the
// spine are reads.
func (w *guardWalker) scanWrite(e ast.Expr, st lockState) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			w.scanReads(x.Index, st)
			e = x.X
		case *ast.SelectorExpr:
			w.checkAccess(x, st, true)
			e = x.X
		case *ast.Ident:
			return
		default:
			w.scanReads(e, st)
			return
		}
	}
}

// checkAccess validates one guarded-field access against the held set.
func (w *guardWalker) checkAccess(sel *ast.SelectorExpr, st lockState, write bool) {
	fieldObj := objectOf(w.g.pass.TypesInfo, sel.Sel)
	if fieldObj == nil {
		return
	}
	fa := w.g.an.fields[fieldObj]
	if fa == nil || fa.Guard == "" {
		return
	}
	root := rootIdentObj(w.g.pass.TypesInfo, sel.X)
	if root == nil {
		return // not <ident>.<field>: out of the documented precision
	}
	if w.fresh[root] {
		return // constructor-local object: no other goroutine can see it
	}
	if st.held(root, fa.Guard) {
		return
	}
	access := "read of"
	if write {
		access = "write to"
	}
	w.g.pass.Reportf(sel.Sel.Pos(), "%s field %q requires %s held (//guard:%s)", access, sel.Sel.Name, fa.Guard, fa.Guard)
}

// checkCallContract enforces //locks:held on calls to annotated
// functions: the caller must actually hold the declared mutex.
func (w *guardWalker) checkCallContract(call *ast.CallExpr, st lockState) {
	var calleeObj types.Object
	var root types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		calleeObj = objectOf(w.g.pass.TypesInfo, fun.Sel)
		root = rootIdentObj(w.g.pass.TypesInfo, fun.X)
	case *ast.Ident:
		calleeObj = objectOf(w.g.pass.TypesInfo, fun)
	default:
		return
	}
	if calleeObj == nil {
		return
	}
	fa := w.g.an.funcs[calleeObj]
	if fa == nil || fa.Held == "" || (root != nil && w.fresh[root]) {
		return
	}
	if !st.held(root, fa.Held) {
		w.g.pass.Reportf(call.Pos(), "call of %s requires %s held (//locks:held)", calleeObj.Name(), fa.Held)
	}
}

// trackFresh marks locals bound to composite literals: c := &Cluster{…}
// is invisible to other goroutines for the rest of this function.
func (w *guardWalker) trackFresh(s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, l := range s.Lhs {
		id, ok := l.(*ast.Ident)
		if !ok {
			continue
		}
		if isCompositeInit(s.Rhs[i]) {
			if obj := objectOf(w.g.pass.TypesInfo, id); obj != nil {
				w.fresh[obj] = true
			}
		}
	}
}

func (w *guardWalker) trackFreshSpec(vs *ast.ValueSpec) {
	if len(vs.Names) != len(vs.Values) {
		return
	}
	for i, id := range vs.Names {
		if isCompositeInit(vs.Values[i]) {
			if obj := objectOf(w.g.pass.TypesInfo, id); obj != nil {
				w.fresh[obj] = true
			}
		}
	}
}

func isCompositeInit(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, ok := x.X.(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}
