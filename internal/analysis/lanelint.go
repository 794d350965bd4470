package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Lanelint polices lane-handler code against the PDES sharding
// contract: while lanes run, the only engine state a handler may touch
// is its own lane's shard.
//
// Handler code is every function annotated //lane:handler plus every
// func literal passed to pdes.Core.Schedule. Inside handler code the
// analyzer reports:
//
//   - des.Simulator scheduling calls — the global queue is
//     single-threaded and only touched world-stopped, so pushing into
//     it from a lane corrupts it; handlers schedule through
//     pdes.Core.Schedule (the des.Sched the engine wires up);
//   - writes to //lane:stopped fields and calls of //lane:stopped
//     functions — those are world-stopped operations, legal only while
//     every lane is parked at a global barrier;
//   - whole-value copies of a //lane:shard element with a struct
//     element type (s := e.shards[i], range with a value variable, or
//     passing e.shards[i] by value) — the generalization of the TP
//     whole-struct-copy race: the copy tears if the owning lane is
//     writing, and the race detector only catches it when two lanes
//     actually collide. Take a pointer (&e.shards[i]) instead;
//   - reassignment of a //lane:shard field itself (the whole slice)
//     and writes to unannotated scalar fields of a shard-owning struct
//     — global engine state that only the stop-the-world phases may
//     touch.
//
// The annotations bind within their package: the lane handlers and the
// state they shard live in internal/pdes and internal/sim, and the
// protocol side they feed runs on the coordinator, never on a lane.
//
// Like guardlint, the analyzer skips _test.go files.
var Lanelint = &Analyzer{
	Name: "lanelint",
	Doc: "lane-handler discipline for //lane: annotated engine state\n\n" +
		"In //lane:handler functions and pdes.Core.Schedule literals: no\n" +
		"scheduling on the global des.Simulator, no writes to\n" +
		"//lane:stopped state, no calls of //lane:stopped\n" +
		"functions, no whole-value copies of //lane:shard elements, and no\n" +
		"writes to unsharded scalar fields of a shard-owning struct.",
	// The lane-sharded engines.
	Include: []string{"internal/pdes", "internal/sim"},
	Run:     runLanelint,
}

func runLanelint(pass *Pass) error {
	an := collectAnnotations(pass)
	an.report(pass, "lane")
	l := &lanelintPass{pass: pass, an: an, shardOwnerField: shardOwnerFields(an)}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					return true
				}
				if obj := pass.TypesInfo.Defs[n.Name]; obj != nil {
					if fa := an.funcs[obj]; fa != nil && fa.LaneHandler {
						l.checkHandler(n.Body)
						return false
					}
				}
			case *ast.CallExpr:
				if isLaneSchedule(pass.TypesInfo, n) {
					for _, arg := range n.Args {
						if lit, ok := arg.(*ast.FuncLit); ok {
							l.checkHandler(lit.Body)
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// shardOwnerFields maps every named field of a struct that declares at
// least one //lane:shard field: writes to those from handler code are
// writes to shared engine state unless the field is itself sharded.
func shardOwnerFields(an *Annotations) map[types.Object]bool {
	owned := make(map[types.Object]bool)
	for _, si := range an.structs {
		hasShard := false
		for _, f := range si.fields {
			if fa := an.fields[f.obj]; fa != nil && fa.LaneShard {
				hasShard = true
				break
			}
		}
		if !hasShard {
			continue
		}
		for _, f := range si.fields {
			owned[f.obj] = true
		}
	}
	return owned
}

// isLaneSchedule reports whether call is pdes.Core.Schedule — the
// handler registration point whose func-literal arguments run on lanes.
func isLaneSchedule(info *types.Info, call *ast.CallExpr) bool {
	path, typ, method, ok := methodCall(info, call)
	return ok && pathIs(path, "pdes") && typ == "Core" && method == "Schedule"
}

type lanelintPass struct {
	pass            *Pass
	an              *Annotations
	shardOwnerField map[types.Object]bool
}

// checkHandler walks one handler region with a parent stack (nested
// literals run on the same lane and stay in scope).
func (l *lanelintPass) checkHandler(body *ast.BlockStmt) {
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				l.checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			l.checkWrite(n.X)
		case *ast.CallExpr:
			l.checkCall(n)
		case *ast.IndexExpr:
			l.checkShardCopy(n, parentOf(stack, n))
		case *ast.RangeStmt:
			l.checkShardRange(n)
		}
		stack = append(stack, n)
		return true
	})
}

func parentOf(stack []ast.Node, n ast.Node) ast.Node {
	if len(stack) == 0 {
		return nil
	}
	return stack[len(stack)-1]
}

// checkWrite classifies one assignment target in handler code.
func (l *lanelintPass) checkWrite(e ast.Expr) {
	indexed := false
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			// Writing through a pointer: ownership was decided where
			// the pointer was taken.
			return
		case *ast.IndexExpr:
			indexed = true
			e = x.X
		case *ast.SelectorExpr:
			fieldObj := objectOf(l.pass.TypesInfo, x.Sel)
			if fieldObj == nil {
				return
			}
			fa := l.an.fields[fieldObj]
			if fa != nil && fa.LaneStopped {
				l.pass.Reportf(x.Sel.Pos(), "write to world-stopped field %q from lane-handler code (//lane:stopped)", x.Sel.Name)
				return
			}
			if fa != nil && fa.LaneShard {
				if !indexed {
					l.pass.Reportf(x.Sel.Pos(), "reassignment of lane-shard field %q from lane-handler code (//lane:shard — only a stop-the-world phase may regrow it)", x.Sel.Name)
				}
				return
			}
			if !indexed && l.shardOwnerField[fieldObj] && !containerField(fieldObj) {
				l.pass.Reportf(x.Sel.Pos(), "write to unsharded field %q of a shard-owning struct from lane-handler code (shard it, guard it, or move the write to a stop-the-world phase)", x.Sel.Name)
				return
			}
			e = x.X
		default:
			return
		}
	}
}

// containerField reports whether the field's type is a slice, map or
// channel: element writes through those are entity-keyed and stay with
// the owning lane by construction, so only scalar fields are flagged.
func containerField(obj types.Object) bool {
	switch obj.Type().Underlying().(type) {
	case *types.Slice, *types.Map, *types.Chan:
		return true
	}
	return false
}

// globalSched names the des.Simulator methods that push onto the global
// queue.
var globalSched = map[string]bool{
	"At": true, "After": true, "Schedule": true, "ScheduleAfter": true,
	"ScheduleArg": true, "ScheduleArgAfter": true, "Again": true,
	"Reschedule": true,
}

// checkCall flags des.Simulator scheduling and calls of //lane:stopped
// functions from handler code.
func (l *lanelintPass) checkCall(call *ast.CallExpr) {
	if path, typ, method, ok := methodCall(l.pass.TypesInfo, call); ok &&
		pathIs(path, "des") && typ == "Simulator" && globalSched[method] {
		l.pass.Reportf(call.Pos(), "des.Simulator.%s called inside a pdes lane handler: the global queue is not lane-safe; schedule through pdes.Core.Schedule (the lane's des.Sched) instead", method)
		return
	}
	var calleeObj types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		calleeObj = objectOf(l.pass.TypesInfo, fun.Sel)
	case *ast.Ident:
		calleeObj = objectOf(l.pass.TypesInfo, fun)
	default:
		return
	}
	if calleeObj == nil {
		return
	}
	if fa := l.an.funcs[calleeObj]; fa != nil && fa.LaneStopped {
		l.pass.Reportf(call.Pos(), "call of world-stopped function %s from lane-handler code (//lane:stopped)", calleeObj.Name())
	}
}

// checkShardCopy flags a shard element with struct type used as a
// value. Allowed parents keep the element in place: &e.shards[i],
// e.shards[i].f, e.shards[i][j], e.shards[i] = v.
func (l *lanelintPass) checkShardCopy(ix *ast.IndexExpr, parent ast.Node) {
	if !l.isShardIndex(ix) || !isStructValue(l.pass.TypesInfo, ix) {
		return
	}
	switch p := parent.(type) {
	case *ast.UnaryExpr:
		if p.Op == token.AND {
			return
		}
	case *ast.SelectorExpr:
		if p.X == ix {
			return
		}
	case *ast.IndexExpr:
		if p.X == ix {
			return
		}
	case *ast.SliceExpr:
		if p.X == ix {
			return
		}
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == ix {
				return // element write, not a copy
			}
		}
	case *ast.IncDecStmt:
		if p.X == ix {
			return
		}
	}
	l.pass.Reportf(ix.Pos(), "copy of lane-shard element (struct value) from lane-handler code — take a pointer to the element instead (//lane:shard)")
}

// checkShardRange flags ranging over a shard field with a struct value
// variable: every iteration copies a possibly foreign lane's element.
func (l *lanelintPass) checkShardRange(r *ast.RangeStmt) {
	if r.Value == nil {
		return
	}
	sel, ok := r.X.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fieldObj := objectOf(l.pass.TypesInfo, sel.Sel)
	if fieldObj == nil {
		return
	}
	fa := l.an.fields[fieldObj]
	if fa == nil || !fa.LaneShard {
		return
	}
	if t, ok := fieldObj.Type().Underlying().(*types.Slice); ok {
		if _, isStruct := t.Elem().Underlying().(*types.Struct); isStruct {
			l.pass.Reportf(r.Value.Pos(), "range over lane-shard field %q copies each struct element — range over the index and take pointers (//lane:shard)", sel.Sel.Name)
		}
	}
}

// isShardIndex reports whether ix indexes a //lane:shard field.
func (l *lanelintPass) isShardIndex(ix *ast.IndexExpr) bool {
	sel, ok := ix.X.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fieldObj := objectOf(l.pass.TypesInfo, sel.Sel)
	if fieldObj == nil {
		return false
	}
	fa := l.an.fields[fieldObj]
	return fa != nil && fa.LaneShard
}

// isStructValue reports whether e's type is a struct (not a pointer).
func isStructValue(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isStruct := tv.Type.Underlying().(*types.Struct)
	return isStruct
}
