package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Poollint enforces the message-pool discipline: delivered
// mobile.Message envelopes are recycled into a free list, so a reference
// that outlives delivery is a use-after-recycle waiting for pool
// pressure — the bug corrupts a later, unrelated message and no
// small-scale test catches it. The analyzer flags (1) uses of a message
// after it was handed to Network.Recycle, (2) pooled *mobile.Message
// values escaping into fields, globals or element stores, (3) pooled
// messages captured by closures (the engine's contract is to pass them
// via ScheduleArg), and (4) messages taken from TryReceive that are
// neither recycled nor handed onward.
var Poollint = &Analyzer{
	Name: "poollint",
	Doc: "enforce pool discipline for recycled mobile.Message envelopes: " +
		"no use after Recycle, no escape into fields/globals/closures past " +
		"delivery, no silent pool leaks",
	// The consumers of the message pool, not its owner
	// internal/mobile. internal/des/equeue keeps its own entry free list
	// and is policed like any other pool consumer.
	Include: []string{
		"internal/sim", "internal/pdes", "internal/protocol", "internal/mlog",
		"internal/recovery", "internal/workload", "internal/check",
		"internal/trace", "internal/des/equeue",
	},
	Run: runPoollint,
}

func runPoollint(pass *Pass) error {
	for _, f := range pass.Files {
		calledLits := immediatelyCalledFuncLits(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.BlockStmt:
				checkUseAfterRecycle(pass, st.List)
			case *ast.CaseClause:
				checkUseAfterRecycle(pass, st.Body)
			case *ast.CommClause:
				checkUseAfterRecycle(pass, st.Body)
			case *ast.AssignStmt:
				checkMessageEscape(pass, st)
			case *ast.FuncLit:
				if !calledLits[st] {
					checkClosureCapture(pass, st)
				}
			case *ast.FuncDecl:
				if st.Body != nil {
					checkTryReceiveLeak(pass, st.Body)
				}
			}
			return true
		})
	}
	return nil
}

// isPooledMessage reports whether t is *mobile.Message (the pooled
// envelope type; fixture packages use the bare path "mobile").
func isPooledMessage(t types.Type) bool {
	ptr, isPtr := t.(*types.Pointer)
	if !isPtr {
		return false
	}
	path, name, ok := namedType(ptr.Elem())
	return ok && pathIs(path, "mobile") && name == "Message"
}

// recycleArg returns the identifier handed to mobile's Network.Recycle.
func recycleArg(info *types.Info, call *ast.CallExpr) (*ast.Ident, bool) {
	recvPath, _, method, ok := methodCall(info, call)
	if !ok || method != "Recycle" || !pathIs(recvPath, "mobile") || len(call.Args) != 1 {
		return nil, false
	}
	id, isIdent := call.Args[0].(*ast.Ident)
	return id, isIdent
}

// checkUseAfterRecycle scans one statement list: after a top-level
// `x.Recycle(m)` statement, any later use of m in the same list is a
// use of pooled memory that may already carry the next message.
// Tracking stops when m is reassigned.
func checkUseAfterRecycle(pass *Pass, stmts []ast.Stmt) {
	for i, st := range stmts {
		es, isExpr := st.(*ast.ExprStmt)
		if !isExpr {
			continue
		}
		call, isCall := es.X.(*ast.CallExpr)
		if !isCall {
			continue
		}
		id, ok := recycleArg(pass.TypesInfo, call)
		if !ok {
			continue
		}
		obj := objectOf(pass.TypesInfo, id)
		// Only variables hold pooled messages: `Recycle(nil)` hands over
		// the universe nil object, which every later nil would "use".
		if _, isVar := obj.(*types.Var); !isVar {
			continue
		}
	scan:
		for _, later := range stmts[i+1:] {
			if assignsTo(pass.TypesInfo, later, obj) {
				break
			}
			var usePos ast.Node
			ast.Inspect(later, func(n ast.Node) bool {
				if usePos != nil {
					return false
				}
				if uid, isIdent := n.(*ast.Ident); isIdent && objectOf(pass.TypesInfo, uid) == obj {
					usePos = n
					return false
				}
				return true
			})
			if usePos != nil {
				pass.Reportf(usePos.Pos(),
					"%s is used after being recycled: the pool may already have handed the buffer to the next send", obj.Name())
				break scan
			}
		}
	}
}

// assignsTo reports whether stmt (directly) reassigns obj, which ends
// use-after-recycle tracking.
func assignsTo(info *types.Info, stmt ast.Stmt, obj types.Object) bool {
	as, isAssign := stmt.(*ast.AssignStmt)
	if !isAssign {
		return false
	}
	for _, lhs := range as.Lhs {
		if id, isIdent := lhs.(*ast.Ident); isIdent && objectOf(info, id) == obj {
			return true
		}
	}
	return false
}

// checkMessageEscape flags assignments that store a pooled
// *mobile.Message where it outlives the delivery path: struct fields,
// package-level variables, and elements reached through either.
func checkMessageEscape(pass *Pass, as *ast.AssignStmt) {
	for i, rhs := range as.Rhs {
		if i >= len(as.Lhs) {
			break
		}
		if !carriesPooledMessage(pass.TypesInfo, rhs) {
			continue
		}
		lhs := as.Lhs[i]
		switch target := lhs.(type) {
		case *ast.SelectorExpr:
			if _, isSel := pass.TypesInfo.Selections[target]; isSel {
				pass.Reportf(as.Pos(),
					"pooled *mobile.Message stored in field %s escapes the delivery path; it will be recycled under the reference", exprString(target))
			}
		case *ast.IndexExpr:
			if escapingBase(pass.TypesInfo, target.X) {
				pass.Reportf(as.Pos(),
					"pooled *mobile.Message stored in %s escapes the delivery path; it will be recycled under the reference", exprString(target))
			}
		case *ast.Ident:
			obj := objectOf(pass.TypesInfo, target)
			if obj != nil && obj.Parent() == pass.Pkg.Scope() {
				pass.Reportf(as.Pos(),
					"pooled *mobile.Message stored in package-level variable %s escapes the delivery path", obj.Name())
			}
		}
	}
}

// carriesPooledMessage reports whether expr is of type *mobile.Message,
// or is an append call with a *mobile.Message among its arguments.
func carriesPooledMessage(info *types.Info, expr ast.Expr) bool {
	if isPooledMessage(info.TypeOf(expr)) {
		return true
	}
	call, isCall := expr.(*ast.CallExpr)
	if !isCall || !isBuiltinAppend(info, call) {
		return false
	}
	for _, arg := range call.Args[1:] {
		if isPooledMessage(info.TypeOf(arg)) {
			return true
		}
	}
	return false
}

// escapingBase reports whether an index-expression base reaches storage
// that outlives the current function: a field or a package-level var.
func escapingBase(info *types.Info, base ast.Expr) bool {
	switch b := base.(type) {
	case *ast.SelectorExpr:
		_, isSel := info.Selections[b]
		return isSel
	case *ast.Ident:
		obj := objectOf(info, b)
		return obj != nil && obj.Parent() != nil && obj.Parent().Parent() == types.Universe
	case *ast.IndexExpr:
		return escapingBase(info, b.X)
	}
	return false
}

// immediatelyCalledFuncLits collects function literals that are invoked
// on the spot (`func() {...}()`): those run before delivery completes,
// so captures are safe.
func immediatelyCalledFuncLits(f *ast.File) map[*ast.FuncLit]bool {
	out := make(map[*ast.FuncLit]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		if call, isCall := n.(*ast.CallExpr); isCall {
			if lit, isLit := call.Fun.(*ast.FuncLit); isLit {
				out[lit] = true
			}
		}
		return true
	})
	return out
}

// checkClosureCapture flags pooled messages captured by closures that
// are not immediately invoked: the engine contract (PR 4) is to pass the
// message through ScheduleArg so one long-lived handler serves every hop
// without per-hop closures — and so no closure can outlive recycling.
func checkClosureCapture(pass *Pass, lit *ast.FuncLit) {
	reported := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, isIdent := n.(*ast.Ident)
		if !isIdent {
			return true
		}
		obj := objectOf(pass.TypesInfo, id)
		if obj == nil || reported[obj] {
			return true
		}
		v, isVar := obj.(*types.Var)
		if !isVar || v.IsField() || !isPooledMessage(v.Type()) {
			return true
		}
		if withinNode(lit, obj.Pos()) {
			return true // the closure's own parameter or local
		}
		reported[obj] = true
		pass.Reportf(id.Pos(),
			"pooled *mobile.Message %s captured by a closure that may outlive delivery; pass it as the ScheduleArg argument instead", obj.Name())
		return true
	})
}

// checkTryReceiveLeak flags `m := net.TryReceive(h)` bindings whose
// message is only ever inspected (field reads, nil checks) but never
// recycled, stored, returned or passed on: the envelope leaks out of the
// pool and steady-state allocation creeps back in.
func checkTryReceiveLeak(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, isAssign := n.(*ast.AssignStmt)
		if !isAssign || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
			return true
		}
		call, isCall := as.Rhs[0].(*ast.CallExpr)
		if !isCall {
			return true
		}
		recvPath, _, method, ok := methodCall(pass.TypesInfo, call)
		if !ok || method != "TryReceive" || !pathIs(recvPath, "mobile") {
			return true
		}
		id, isIdent := as.Lhs[0].(*ast.Ident)
		if !isIdent {
			return true
		}
		obj := objectOf(pass.TypesInfo, id)
		if obj == nil {
			return true
		}
		if !disposedSomewhere(pass.TypesInfo, body, as, obj) {
			pass.Reportf(as.Pos(),
				"message %s from TryReceive is neither recycled, stored, nor passed on: the pooled envelope leaks", obj.Name())
		}
		return true
	})
}

// disposedSomewhere reports whether obj, bound at binding, is ever
// disposed of responsibly inside body: the message value itself passed
// to a call (Recycle or any hand-off), returned, or aliased by an
// assignment. Field reads and nil checks do not count — they are
// inspection, not disposal.
func disposedSomewhere(info *types.Info, body *ast.BlockStmt, binding *ast.AssignStmt, obj types.Object) bool {
	isObj := func(e ast.Expr) bool {
		id, isIdent := e.(*ast.Ident)
		return isIdent && objectOf(info, id) == obj
	}
	disposed := false
	ast.Inspect(body, func(n ast.Node) bool {
		if disposed {
			return false
		}
		switch st := n.(type) {
		case *ast.CallExpr:
			for _, arg := range st.Args {
				if isObj(arg) {
					disposed = true
				}
			}
		case *ast.ReturnStmt:
			for _, res := range st.Results {
				if isObj(res) {
					disposed = true
				}
			}
		case *ast.AssignStmt:
			if st == binding {
				return true
			}
			for _, rhs := range st.Rhs {
				if isObj(rhs) {
					disposed = true // aliased; the alias is tracked separately
				}
			}
		}
		return !disposed
	})
	return disposed
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, isIdent := call.Fun.(*ast.Ident)
	if !isIdent {
		return false
	}
	b, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin && b.Name() == "append"
}

func withinNode(n ast.Node, pos token.Pos) bool {
	return n.Pos() <= pos && pos < n.End()
}

// exprString renders a short source-ish form of simple lvalues for
// diagnostics (fields, indexes); it does not need to be complete.
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.IndexExpr:
		return exprString(v.X) + "[...]"
	}
	return "expression"
}
