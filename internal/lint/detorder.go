package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetOrder flags `for range` over a map whose body performs an
// order-sensitive operation without sorted keys. Go randomizes map
// iteration order per run, so a map-ordered loop that writes serialized
// output (the PR 4 /metrics bug), folds into a shared float accumulator,
// or merges estimator state produces byte-different output across
// replicas — exactly the nondeterminism the federation tier's
// byte-identical merge guarantees forbid.
//
// Order-insensitive bodies stay silent: merging into a target indexed by
// the range key (per-key state is independent of visit order), integer
// counting (addition over int is commutative and exact), collecting keys
// for a later sort, and appends to a slice that is sorted after the loop.
//
// The remedy the message names is the sanctioned pattern: collect the keys,
// sort them, range over the sorted slice, and read the map per key.
var DetOrder = &Analyzer{
	Name: "detorder",
	Doc:  "map iteration whose body writes serialized output or folds order-sensitive state without sorted keys",
	Run:  runDetOrder,
}

// detorderWriters is the serialized-output call set: anything writing
// bytes in loop order.
var detorderWriters = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "Marshal": true,
}

// detorderMergers matches accumulator-merge and estimator-fold calls.
func detorderMerger(name string) bool {
	lower := strings.ToLower(name)
	return strings.Contains(lower, "merge") || strings.Contains(lower, "fold") ||
		name == "Add" || name == "AddState"
}

func runDetOrder(pass *Pass) {
	for _, file := range pass.Files {
		walkWithStack(file, func(stack []ast.Node, n ast.Node) {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return
			}
			tv, ok := pass.Info.Types[rs.X]
			if !ok || tv.Type == nil {
				return
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return
			}
			sink := findOrderSink(pass, rs, stack)
			if sink == nil {
				return
			}
			pass.Reportf(rs.For,
				"map iteration order reaches %s; iterating %s unsorted makes the output nondeterministic (sort the keys first and range over them)",
				sink.what, types.ExprString(rs.X))
		})
	}
}

// orderSink describes the order-sensitive operation that justified the
// finding.
type orderSink struct {
	pos  token.Pos
	what string
}

// findOrderSink scans the loop body (not descending into nested function
// literals) for the first order-sensitive operation.
func findOrderSink(pass *Pass, rs *ast.RangeStmt, stack []ast.Node) *orderSink {
	keyed := keyedObjects(pass, rs)
	// safeCalls holds calls already justified by their assignment context:
	// an append whose result lands in per-key state is order-insensitive
	// even though the call itself looks like an unsorted append.
	safeCalls := make(map[*ast.CallExpr]bool)
	var sink *orderSink
	inspectShallow(rs.Body, func(n ast.Node, _ []ast.Node) bool {
		if sink != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			// Track locals derived from keyed values (merged := m[name]).
			recordKeyedLocals(pass, n, keyed)
			markKeyedAppends(pass, n, keyed, safeCalls)
			if s := orderSensitiveAssign(pass, rs, n, keyed); s != nil {
				sink = s
			}
		case *ast.CallExpr:
			if safeCalls[n] {
				return true
			}
			if s := orderSensitiveCall(pass, rs, n, keyed, stack); s != nil {
				sink = s
			}
		}
		return true
	})
	return sink
}

// markKeyedAppends records append calls whose result is assigned to
// per-key state (dst.Structs[k] = append(..., v...)): the append's
// visit order is keyed away, so the call must not be flagged when the
// walk reaches it. Assignment statements are visited before their
// children, so the set is populated in time.
func markKeyedAppends(pass *Pass, as *ast.AssignStmt, keyed map[types.Object]bool, safe map[*ast.CallExpr]bool) {
	for i, rhs := range as.Rhs {
		if i >= len(as.Lhs) {
			break
		}
		call, ok := unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		if id, isID := call.Fun.(*ast.Ident); !isID || id.Name != "append" {
			continue
		}
		if lhsIsKeyed(pass.Info, as.Lhs[i], keyed) {
			safe[call] = true
		}
	}
}

// keyedObjects seeds the per-key value set: the range key and value
// variables themselves.
func keyedObjects(pass *Pass, rs *ast.RangeStmt) map[types.Object]bool {
	keyed := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.Info.Defs[id]; obj != nil {
				keyed[obj] = true
			} else if obj := pass.Info.Uses[id]; obj != nil {
				keyed[obj] = true
			}
		}
	}
	return keyed
}

// recordKeyedLocals extends the keyed set through simple derivations: a
// local defined from an expression that mentions a keyed variable
// (merged := v.Merged[name]) is itself per-key state. Only := counts —
// a compound assignment like sum += v mixes per-key input into shared
// state, which is exactly what must stay flaggable.
func recordKeyedLocals(pass *Pass, as *ast.AssignStmt, keyed map[types.Object]bool) {
	if as.Tok != token.DEFINE {
		return
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		if mentionsObjects(pass.Info, as.Rhs[i], keyed) {
			if obj := pass.Info.Defs[id]; obj != nil {
				keyed[obj] = true
			} else if obj := pass.Info.Uses[id]; obj != nil {
				keyed[obj] = true
			}
		}
	}
}

// mentionsObjects reports whether any identifier under e resolves into
// the set.
func mentionsObjects(info *types.Info, e ast.Expr, set map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && set[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// orderSensitiveAssign flags floating-point compound accumulation into
// state that outlives the loop: sum += v over map values visits addends
// in random order, and float addition is not associative.
func orderSensitiveAssign(pass *Pass, rs *ast.RangeStmt, as *ast.AssignStmt, keyed map[types.Object]bool) *orderSink {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return nil
	}
	lhs := as.Lhs[0]
	if !isFloatTyped(pass.Info, lhs) {
		return nil
	}
	if lhsIsKeyed(pass.Info, lhs, keyed) {
		return nil
	}
	return &orderSink{pos: as.TokPos,
		what: fmt.Sprintf("float accumulation %s %s", types.ExprString(lhs), as.Tok)}
}

// lhsIsKeyed reports whether an assignment target is per-key state: the
// base is a keyed local, or the target is indexed by a keyed variable.
func lhsIsKeyed(info *types.Info, lhs ast.Expr, keyed map[types.Object]bool) bool {
	switch l := unparen(lhs).(type) {
	case *ast.Ident:
		obj := info.Uses[l]
		if obj == nil {
			obj = info.Defs[l]
		}
		return obj != nil && keyed[obj]
	case *ast.IndexExpr:
		return mentionsObjects(info, l.Index, keyed)
	case *ast.SelectorExpr:
		return lhsIsKeyed(info, l.X, keyed)
	}
	return false
}

// isFloatTyped reports whether the expression's type is floating point.
func isFloatTyped(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// orderSensitiveCall classifies calls in the loop body: serialized writes
// are always order-sensitive; merges/folds are safe only into per-key
// targets; appends are safe when collecting the key itself or when the
// destination slice is sorted after the loop.
func orderSensitiveCall(pass *Pass, rs *ast.RangeStmt, call *ast.CallExpr, keyed map[types.Object]bool, stack []ast.Node) *orderSink {
	// append(dst, x): order leaks into dst unless x is the bare key (the
	// collect-then-sort idiom) or dst is sorted after the loop.
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(call.Args) >= 2 {
		if keyOnlyArgs(pass.Info, call.Args[1:], keyed, rs) {
			return nil
		}
		if dst, ok := call.Args[0].(*ast.Ident); ok && sortedAfterLoop(pass, rs, dst, stack) {
			return nil
		}
		return &orderSink{pos: call.Pos(),
			what: fmt.Sprintf("append to %s (not sorted after the loop)", types.ExprString(call.Args[0]))}
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		// Package-level fmt.Fprintf is also a selector; plain idents
		// (local helpers) are out of scope.
		return nil
	}
	name := sel.Sel.Name
	if pkgPath, fname, isPkg := pkgFuncCall(pass.Info, sel); isPkg {
		if (pkgPath == "fmt" || pkgPath == "encoding/json") && detorderWriters[fname] {
			return &orderSink{pos: call.Pos(), what: fmt.Sprintf("%s.%s", pkgPath, fname)}
		}
		return nil
	}
	// Method calls: receiver locality decides. A writer or merger on a
	// receiver created inside the loop body, or on per-key state, is safe.
	recv := sel.X
	if detorderWriters[name] || detorderMerger(name) {
		if lhsIsKeyed(pass.Info, recv, keyed) || declaredWithin(pass.Info, recv, rs.Body) {
			return nil
		}
		if detorderMerger(name) {
			// Integer bumps (counter.Add(1), atomic counters) are exact and
			// commutative: visit order cannot change the result.
			if allIntArgs(pass.Info, call.Args) {
				return nil
			}
			// A merge routed by the range key itself (hdr.Add(k, v),
			// dst.Set(k, ...)) writes per-key state — order-insensitive
			// across keys even though the receiver is shared.
			if len(call.Args) > 0 && isRangeKey(pass.Info, call.Args[0], rs) {
				return nil
			}
			// Keyed arguments into a keyed target were handled above; a
			// merge whose *arguments* are all per-key but whose target is
			// shared is still order-sensitive for floats — but integer
			// counter bumps are exact. Only float-bearing merges matter;
			// without visibility into the callee, stay conservative and
			// flag shared-target merges.
			return &orderSink{pos: call.Pos(),
				what: fmt.Sprintf("order-sensitive merge %s.%s", types.ExprString(recv), name)}
		}
		return &orderSink{pos: call.Pos(),
			what: fmt.Sprintf("serialized write %s.%s", types.ExprString(recv), name)}
	}
	return nil
}

// allIntArgs reports whether every argument is integer-typed (and there
// is at least one).
func allIntArgs(info *types.Info, args []ast.Expr) bool {
	if len(args) == 0 {
		return false
	}
	for _, a := range args {
		tv, ok := info.Types[a]
		if !ok || tv.Type == nil {
			return false
		}
		b, isBasic := tv.Type.Underlying().(*types.Basic)
		if !isBasic || b.Info()&types.IsInteger == 0 {
			return false
		}
	}
	return true
}

// isRangeKey reports whether the expression is exactly the range
// statement's key variable.
func isRangeKey(info *types.Info, e ast.Expr, rs *ast.RangeStmt) bool {
	keyID, ok := rs.Key.(*ast.Ident)
	if !ok || keyID.Name == "_" {
		return false
	}
	keyObj := info.Defs[keyID]
	if keyObj == nil {
		keyObj = info.Uses[keyID]
	}
	id, ok := unparen(e).(*ast.Ident)
	return ok && keyObj != nil && info.Uses[id] == keyObj
}

// keyOnlyArgs reports whether every appended value is exactly the range
// key variable.
func keyOnlyArgs(info *types.Info, args []ast.Expr, keyed map[types.Object]bool, rs *ast.RangeStmt) bool {
	keyID, ok := rs.Key.(*ast.Ident)
	if !ok || keyID.Name == "_" {
		return false
	}
	keyObj := info.Defs[keyID]
	if keyObj == nil {
		keyObj = info.Uses[keyID]
	}
	for _, a := range args {
		id, isID := unparen(a).(*ast.Ident)
		if !isID {
			return false
		}
		obj := info.Uses[id]
		if obj == nil || obj != keyObj {
			return false
		}
	}
	return true
}

// declaredWithin reports whether the expression's base identifier is
// declared inside the given node's source range (per-iteration state).
func declaredWithin(info *types.Info, e ast.Expr, within ast.Node) bool {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		// x.y.Write: walk to the base.
		if sel, isSel := unparen(e).(*ast.SelectorExpr); isSel {
			return declaredWithin(info, sel.X, within)
		}
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	return obj != nil && obj.Pos() >= within.Pos() && obj.Pos() <= within.End()
}

// sortedAfterLoop reports whether a sort call mentioning dst appears
// after the range statement in an enclosing block — the collect-rows,
// sort-later idiom.
func sortedAfterLoop(pass *Pass, rs *ast.RangeStmt, dst *ast.Ident, stack []ast.Node) bool {
	dstObj := pass.Info.Uses[dst]
	if dstObj == nil {
		return false
	}
	for i := len(stack) - 1; i >= 0; i-- {
		block, ok := stack[i].(*ast.BlockStmt)
		if !ok {
			continue
		}
		for _, stmt := range block.List {
			if stmt.Pos() <= rs.End() {
				continue
			}
			found := false
			ast.Inspect(stmt, func(n ast.Node) bool {
				call, isCall := n.(*ast.CallExpr)
				if !isCall {
					return true
				}
				sel, isSel := call.Fun.(*ast.SelectorExpr)
				if !isSel {
					return true
				}
				pkgPath, name, isPkg := pkgFuncCall(pass.Info, sel)
				if !isPkg || (pkgPath != "sort" && pkgPath != "slices") || !strings.Contains(name, "Sort") && !sortFuncName(name) {
					return true
				}
				for _, a := range call.Args {
					if mentionsObjects(pass.Info, a, map[types.Object]bool{dstObj: true}) {
						found = true
					}
				}
				return !found
			})
			if found {
				return true
			}
		}
	}
	return false
}

// sortFuncName matches the sort package's typed convenience sorters.
func sortFuncName(name string) bool {
	switch name {
	case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Sort", "Stable":
		return true
	}
	return false
}
