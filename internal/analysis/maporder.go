package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Maporder enforces the iteration-order contract behind byte-identical
// exports: Go map iteration order is randomized per run, so a `range`
// over a map may not append into an outer slice (unless that slice is
// sorted afterwards in the same function), may not write output, and
// may not feed the stats/obs exporters directly. This is the known way
// figure tables, CSV files and trace JSON lose byte-identity while every
// numeric assertion still passes.
var Maporder = &Analyzer{
	Name: "maporder",
	Doc: "flag range-over-map loops whose body appends to an outer slice " +
		"without a subsequent sort, writes output, or feeds stats/obs " +
		"accumulators — map iteration order is randomized and leaks " +
		"straight into exported artifacts",
	// Everything except examples (demo output).
	Include: []string{"*"},
	Exclude: []string{"examples/..."},
	Run:     runMaporder,
}

// sortCalls recognizes the blessing that makes a collected slice safe
// again: package-level sort/slices calls whose argument mentions the
// slice.
var sortCalls = map[string]map[string]bool{
	"sort": {
		"Strings": true, "Ints": true, "Float64s": true,
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// writerMethods are io.Writer-shaped methods whose invocation inside a
// map range means bytes leave in randomized order.
var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "WriteTo": true,
}

func runMaporder(pass *Pass) error {
	for _, f := range pass.Files {
		// Every function body in the file, innermost resolvable by span.
		var bodies []*ast.BlockStmt
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					bodies = append(bodies, fn.Body)
				}
			case *ast.FuncLit:
				bodies = append(bodies, fn.Body)
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			rng, isRange := n.(*ast.RangeStmt)
			if !isRange || !isMapType(pass.TypesInfo.TypeOf(rng.X)) {
				return true
			}
			checkMapRange(pass, rng, enclosingBody(bodies, rng))
			return true
		})
	}
	return nil
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// enclosingBody returns the smallest function body containing n.
func enclosingBody(bodies []*ast.BlockStmt, n ast.Node) *ast.BlockStmt {
	var best *ast.BlockStmt
	for _, b := range bodies {
		if b.Pos() <= n.Pos() && n.End() <= b.End() {
			if best == nil || (best.Pos() <= b.Pos() && b.End() <= best.End()) {
				best = b
			}
		}
	}
	return best
}

func checkMapRange(pass *Pass, rng *ast.RangeStmt, fnBody *ast.BlockStmt) {
	// Slices collected from the loop, keyed by object, with the position
	// of the first offending append.
	appends := make(map[types.Object]token.Pos)
	var appendOrder []types.Object

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				call, isCall := rhs.(*ast.CallExpr)
				if !isCall || !isBuiltinAppend(pass.TypesInfo, call) || i >= len(st.Lhs) {
					continue
				}
				switch lhs := st.Lhs[i].(type) {
				case *ast.Ident:
					obj := objectOf(pass.TypesInfo, lhs)
					if obj == nil || withinNode(rng, obj.Pos()) {
						continue // per-iteration local: order-safe
					}
					if _, seen := appends[obj]; !seen {
						appends[obj] = st.Pos()
						appendOrder = append(appendOrder, obj)
					}
				default:
					// Append straight into a field or element: nothing
					// local left to sort before export.
					pass.Reportf(st.Pos(),
						"append to %s inside range over map: iteration order is randomized; collect into a local slice and sort it", exprString(lhs))
				}
			}
		case *ast.CallExpr:
			reportOrderSensitiveCall(pass, st)
		}
		return true
	})

	for _, obj := range appendOrder {
		if fnBody != nil && sortedAfter(pass.TypesInfo, fnBody, rng, obj) {
			continue
		}
		pass.Reportf(appends[obj],
			"slice %s collects map keys/values in randomized iteration order and is never sorted afterwards in this function", obj.Name())
	}
}

// reportOrderSensitiveCall flags calls that emit or accumulate in
// iteration order: fmt printing, io.Writer methods, and any method on a
// stats/obs value (table rows, metric observations, timeline events).
func reportOrderSensitiveCall(pass *Pass, call *ast.CallExpr) {
	if path, name, ok := pkgFunc(pass.TypesInfo, call); ok {
		switch {
		case path == "fmt" && (name == "Fprint" || name == "Fprintf" || name == "Fprintln" ||
			name == "Print" || name == "Printf" || name == "Println"):
			pass.Reportf(call.Pos(), "fmt.%s inside range over map writes output in randomized iteration order", name)
		case path == "io" && name == "WriteString":
			pass.Reportf(call.Pos(), "io.WriteString inside range over map writes output in randomized iteration order")
		}
		return
	}
	if recvPath, recvType, method, ok := methodCall(pass.TypesInfo, call); ok {
		switch {
		case writerMethods[method]:
			pass.Reportf(call.Pos(),
				"%s.%s inside range over map writes output in randomized iteration order", recvType, method)
		case pathIs(recvPath, "stats") || pathIs(recvPath, "obs"):
			pass.Reportf(call.Pos(),
				"%s.%s fed inside range over map: exporter contents become order-dependent; iterate a sorted key slice instead", recvType, method)
		}
	}
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

// sortedAfter reports whether fnBody contains, after the range loop, a
// sort/slices call whose arguments mention obj.
func sortedAfter(info *types.Info, fnBody *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, isCall := n.(*ast.CallExpr)
		if !isCall || call.Pos() < rng.End() {
			return true
		}
		path, name, ok := pkgFunc(info, call)
		if !ok || !sortCalls[pkgShort(path)][name] {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, isIdent := an.(*ast.Ident); isIdent && objectOf(info, id) == obj {
					found = true
					return false
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// pkgShort maps the import paths "sort" and "slices" to themselves and
// anything else to "" so the sortCalls lookup stays a plain map access.
func pkgShort(path string) string {
	switch path {
	case "sort", "slices":
		return path
	}
	return ""
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
