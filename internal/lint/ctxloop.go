package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// CtxLoop flags blocking channel operations and sleeps inside loops that
// have a cancellable context in scope but never consult it — the
// CacheLogSource bug class: a source goroutine parked on `out <- dp` (or
// a poll sleep) outlives its context forever because cancellation is
// never observed. A loop is deaf when its header and body contain no use
// of any in-scope context object at all; one mention (ctx.Done() in a
// select, ctx.Err() in the condition, ctx passed to the blocking call)
// silences the loop.
//
// In-scope contexts are function parameters of type context.Context and
// locals derived from context.WithCancel/WithDeadline/WithTimeout/
// WithValue, including those captured by nested function literals.
// Locals created from context.Background() or context.TODO() are exempt:
// they cannot be cancelled, so there is nothing to consult (the
// examples' poll loops are deliberate).
//
// Range over a channel is exempt — that is the close-based shutdown
// idiom, terminated by the sender. The remedy the message names is a
// select with a <-ctx.Done() case around the blocking operation.
var CtxLoop = &Analyzer{
	Name: "ctxloop",
	Doc:  "blocking channel ops or sleeps in loops that never consult an in-scope context",
	Run:  runCtxLoop,
}

func runCtxLoop(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ctxLoopScan(pass, fd.Type, fd.Body, nil)
		}
	}
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// ctxLoopScan analyzes one function body given the contexts inherited
// from enclosing functions (closure capture), then recurses into nested
// function literals with the extended set.
func ctxLoopScan(pass *Pass, ft *ast.FuncType, body *ast.BlockStmt, inherited []types.Object) {
	ctxs := append([]types.Object(nil), inherited...)
	if ft != nil && ft.Params != nil {
		for _, field := range ft.Params.List {
			for _, nm := range field.Names {
				if obj := pass.Info.Defs[nm]; obj != nil && isContextType(obj.Type()) {
					ctxs = append(ctxs, obj)
				}
			}
		}
	}
	// Derived cancellable locals: ctx, cancel := context.WithTimeout(...).
	// Background()/TODO() locals are deliberately not collected.
	inspectShallow(body, func(n ast.Node, _ []ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgPath, name, isPkg := pkgFuncCall(pass.Info, sel)
		if !isPkg || pkgPath != "context" {
			return true
		}
		switch name {
		case "WithCancel", "WithDeadline", "WithTimeout", "WithValue", "WithCancelCause":
		default:
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := pass.Info.Defs[id]
			if obj == nil {
				obj = pass.Info.Uses[id]
			}
			if obj != nil && isContextType(obj.Type()) {
				ctxs = append(ctxs, obj)
			}
		}
		return true
	})

	// Check each loop whose body is directly in this function, and recurse
	// into function literals with the accumulated context set.
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				ctxLoopScan(pass, n.Type, n.Body, ctxs)
				return false
			case *ast.ForStmt:
				ctxLoopCheck(pass, n, n.Body, ctxs)
			case *ast.RangeStmt:
				ctxLoopCheck(pass, n, n.Body, ctxs)
			}
			return true
		})
	}
	walk(body)
}

// ctxLoopCheck reports blocking operations in one loop when no in-scope
// context is consulted anywhere in the loop. Nested loops are not
// descended into — each gets its own check — but they do count toward
// the consultation scan, and so do nested function literals: a ctx use
// anywhere inside the loop means cancellation was considered.
func ctxLoopCheck(pass *Pass, loop ast.Node, body *ast.BlockStmt, ctxs []types.Object) {
	if len(ctxs) == 0 {
		return
	}
	if loopConsultsCtx(pass, loop, ctxs) {
		return
	}
	ctxName := consultName(ctxs)
	for _, op := range blockingOps(pass, body) {
		pass.Reportf(op.pos,
			"%s inside loop but in-scope context %q is never consulted; cancellation cannot stop this loop (add a select case on <-%s.Done())",
			op.what, ctxName, ctxName)
	}
}

// loopConsultsCtx reports whether any identifier anywhere in the loop
// (header and body, including nested literals) resolves to one of the
// in-scope context objects.
func loopConsultsCtx(pass *Pass, loop ast.Node, ctxs []types.Object) bool {
	set := make(map[types.Object]bool, len(ctxs))
	for _, o := range ctxs {
		set[o] = true
	}
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil && set[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// consultName picks the context variable to name in messages:
// the one literally called ctx when present, else the first in scope.
func consultName(ctxs []types.Object) string {
	for _, o := range ctxs {
		if o.Name() == "ctx" {
			return "ctx"
		}
	}
	return ctxs[0].Name()
}

// blockingOp is one blocking statement found in a loop body.
type blockingOp struct {
	pos  token.Pos
	what string
}

// blockingOps scans a loop body for blocking channel operations and
// sleeps, skipping nested function literals, nested loops (checked
// separately), and select statements (a select is already multiplexing;
// whether it includes ctx is the consultation scan's question).
func blockingOps(pass *Pass, body *ast.BlockStmt) []blockingOp {
	var ops []blockingOp
	inspectShallow(body, func(n ast.Node, _ []ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SelectStmt:
			return false
		case *ast.SendStmt:
			ops = append(ops, blockingOp{
				pos:  n.Arrow,
				what: fmt.Sprintf("blocking send on %s", types.ExprString(n.Chan)),
			})
			return false
		case *ast.UnaryExpr:
			if n.Op != token.ARROW {
				return true
			}
			ops = append(ops, blockingOp{
				pos:  n.OpPos,
				what: fmt.Sprintf("blocking receive from %s", types.ExprString(n.X)),
			})
			return false
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if pkgPath, name, isPkg := pkgFuncCall(pass.Info, sel); isPkg &&
					pkgPath == "time" && name == "Sleep" {
					ops = append(ops, blockingOp{pos: n.Pos(), what: "time.Sleep"})
				}
			}
		}
		return true
	})
	return ops
}
