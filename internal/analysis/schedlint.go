package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// Schedlint enforces the internal/des API contracts that the event pool
// made load-bearing: events come from the Simulator's free list, so a
// zero-value Event is not schedulable, an event handed to a fired
// handler is already recycled (cancelling it cancels somebody else's
// event), and a negative delay panics at runtime — better to fail the
// build than the five-minute sweep.
var Schedlint = &Analyzer{
	Name: "schedlint",
	Doc: "enforce internal/des scheduler contracts: no zero-value Event " +
		"construction outside the engine, no constant negative delays/times, " +
		"no Cancel of an event from inside its own handler (the event is " +
		"recycled the moment the handler fires), and no direct des.Simulator " +
		"scheduling inside a pdes lane handler (lane handlers run " +
		"concurrently; the global queue is only safe world-stopped)",
	// Every client of internal/des, not the engine itself. The exemption
	// is the root package only: the queues under internal/des/equeue
	// honour the scheduler contracts like everyone else.
	Include: []string{"*"},
	Exclude: []string{"internal/des"},
	Run:     runSchedlint,
}

// delayArg maps des.Simulator scheduling methods to the index of their
// time/delay argument.
var delayArg = map[string]int{
	"At": 0, "After": 0, "Schedule": 0, "ScheduleAfter": 0,
	"ScheduleArg": 0, "ScheduleArgAfter": 0, "Again": 0,
	"Reschedule": 1,
}

func runSchedlint(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CompositeLit:
				if path, name, ok := namedType(pass.TypesInfo.TypeOf(node)); ok &&
					pathIs(path, "des") && name == "Event" {
					pass.Reportf(node.Pos(),
						"zero-value des.Event constructed outside the engine: events come from the Simulator pool (use At/After)")
				}
			case *ast.CallExpr:
				checkNewEvent(pass, node)
				checkNegativeDelay(pass, node)
				checkLaneHandlerSched(pass, node)
			case *ast.AssignStmt:
				checkSelfCancel(pass, node)
			}
			return true
		})
	}
	return nil
}

// checkNewEvent flags new(des.Event), the other spelling of a zero-value
// event.
func checkNewEvent(pass *Pass, call *ast.CallExpr) {
	id, isIdent := call.Fun.(*ast.Ident)
	if !isIdent || len(call.Args) != 1 {
		return
	}
	if b, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin || b.Name() != "new" {
		return
	}
	if path, name, ok := namedType(pass.TypesInfo.TypeOf(call.Args[0])); ok &&
		pathIs(path, "des") && name == "Event" {
		pass.Reportf(call.Pos(),
			"new(des.Event) constructs an unpooled zero-value event: events come from the Simulator pool (use At/After)")
	}
}

// simulatorMethod resolves call as a method on des.Simulator.
func simulatorMethod(pass *Pass, call *ast.CallExpr) (string, bool) {
	recvPath, recvType, method, ok := methodCall(pass.TypesInfo, call)
	if !ok || !pathIs(recvPath, "des") || recvType != "Simulator" {
		return "", false
	}
	return method, true
}

// checkNegativeDelay flags scheduling calls whose time/delay argument is
// a negative constant: des.Run panics on events scheduled in the past,
// and a constant negative delay is always that bug.
func checkNegativeDelay(pass *Pass, call *ast.CallExpr) {
	method, ok := simulatorMethod(pass, call)
	if !ok {
		return
	}
	idx, scheduled := delayArg[method]
	if !scheduled || idx >= len(call.Args) {
		return
	}
	arg := call.Args[idx]
	tv, hasType := pass.TypesInfo.Types[arg]
	if !hasType || tv.Value == nil {
		return
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		if constant.Sign(tv.Value) < 0 {
			pass.Reportf(arg.Pos(),
				"constant negative time/delay passed to Simulator.%s: the engine panics on events scheduled in the past", method)
		}
	}
}

// checkLaneHandlerSched flags des.Simulator scheduling calls made from
// inside a handler literal passed to pdes.Core.Schedule:
//
//	core.Schedule(e, o, t, func(s *des.Simulator, now des.Time, arg any) {
//		... s.ScheduleArg(...) ...
//	}, arg, false)
//
// A lane handler runs concurrently with the other lanes while the global
// des.Simulator queue is single-threaded and only touched world-stopped;
// pushing into it from a lane corrupts the heap. Lane handlers must
// schedule through the lane-aware path (pdes.Core.Schedule, reached via
// the des.Sched the engine wires up).
func checkLaneHandlerSched(pass *Pass, call *ast.CallExpr) {
	if !isLaneSchedule(pass.TypesInfo, call) {
		return
	}
	for _, arg := range call.Args {
		lit, isLit := arg.(*ast.FuncLit)
		if !isLit {
			continue
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			inner, isInner := n.(*ast.CallExpr)
			if !isInner {
				return true
			}
			m, isSim := simulatorMethod(pass, inner)
			if !isSim {
				return true
			}
			if _, scheduling := delayArg[m]; !scheduling {
				return true
			}
			pass.Reportf(inner.Pos(),
				"des.Simulator.%s called inside a pdes lane handler: the global queue is not lane-safe; schedule through pdes.Core.Schedule (the lane's des.Sched) instead", m)
			return true
		})
	}
}

// checkSelfCancel flags the pattern
//
//	ev = s.At(t, "x", func(s *des.Simulator, now des.Time) {
//		... s.Cancel(ev) ...
//	})
//
// — by the time the handler runs, ev has fired and been recycled, so the
// Cancel hits whatever event now owns the pooled slot.
func checkSelfCancel(pass *Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 || len(as.Lhs) != 1 {
		return
	}
	call, isCall := as.Rhs[0].(*ast.CallExpr)
	if !isCall {
		return
	}
	method, ok := simulatorMethod(pass, call)
	if !ok || (method != "At" && method != "After") {
		return
	}
	lhs, isIdent := as.Lhs[0].(*ast.Ident)
	if !isIdent {
		return
	}
	obj := objectOf(pass.TypesInfo, lhs)
	if obj == nil {
		return
	}
	for _, arg := range call.Args {
		lit, isLit := arg.(*ast.FuncLit)
		if !isLit {
			continue
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			inner, isInner := n.(*ast.CallExpr)
			if !isInner {
				return true
			}
			m, isSim := simulatorMethod(pass, inner)
			if !isSim || m != "Cancel" || len(inner.Args) != 1 {
				return true
			}
			if cid, isCID := inner.Args[0].(*ast.Ident); isCID && objectOf(pass.TypesInfo, cid) == obj {
				pass.Reportf(inner.Pos(),
					"%s is cancelled from inside its own handler: a fired event is already recycled, so this cancels an unrelated event", obj.Name())
			}
			return true
		})
	}
}
