package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PropTaint tracks sampled propensities from the draw site to the logged
// Datapoint.Propensity field, intra-procedurally, and flags anything that
// rewrites the value in between. Eq. 1 of the paper is only unbiased when
// the logged propensity is *exactly* the probability the action was
// sampled with; a clamp, renormalization, or "helpful" floor between draw
// and log silently biases every IPS estimate built from that log, without
// crashing anything. Legitimate propensity *inference* (the harvester's
// PropensityInferrer implementations) recomputes the field wholesale and
// is out of scope: only values that demonstrably came from a sampler draw
// are tainted.
//
// Sources (taint introduction):
//   - calls whose name contains "Sample" or "Draw" — every float64 result
//     is a sampled propensity
//   - indexing a slice returned by a Distribution(...) call — dist[i] is
//     the propensity of action i
//   - indexing any slice with an index drawn by a Categorical(...) call —
//     the i := Categorical(r, dist); p := dist[i] idiom
//
// Violations:
//   - compound arithmetic on a tainted variable (p *= x, p /= n, ...)
//   - reassigning a tainted variable from arithmetic over itself
//     (p = p * scale) or from a clamp-style call (p = math.Max(p, floor))
//   - overwriting a tainted variable under a branch conditioned on itself
//     (if p < eps { p = eps }) — a clamp spelled as control flow
//   - assigning arithmetic or a clamp over propensity-like operands into a
//     Propensity field (d.Propensity = p/total, Datapoint{Propensity:
//     math.Max(p, 1e-3)}); compile-time constant expressions such as
//     1.0/3 stay exempt
var PropTaint = &Analyzer{
	Name: "proptaint",
	Run:  runPropTaint,
}

// samplerName reports whether a called function's name marks its float
// results as sampled propensities.
func samplerName(name string) bool {
	lower := strings.ToLower(name)
	return strings.Contains(lower, "sample") || strings.Contains(lower, "draw")
}

// categoricalName matches index-samplers: functions that draw an index
// into the distribution slice they were given.
func categoricalName(name string) bool {
	return strings.Contains(strings.ToLower(name), "categorical")
}

// clampishName reports whether a call by this name rewrites its argument's
// value range (the clamp/floor/cap family). Max and Min cover math.Max,
// math.Min and the builtins.
func clampishName(name string) bool {
	lower := strings.ToLower(name)
	for _, sub := range []string{"clip", "clamp", "floor", "ceil", "max", "min", "abs", "bound"} {
		if strings.Contains(lower, sub) {
			return true
		}
	}
	return false
}

// propTaintState is the per-function taint state.
type propTaintState struct {
	pass *Pass
	// tainted maps a variable object to the position of its taint (the
	// draw). Violations are only reported at positions after the draw.
	tainted map[types.Object]token.Pos
	// distSlices holds variables assigned from a Distribution(...) call.
	distSlices map[types.Object]bool
	// drawnIdx holds variables assigned from a Categorical(...) call.
	drawnIdx map[types.Object]bool
}

func runPropTaint(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			// Keep descending after analyzing: inspectShallow skips nested
			// function literals, so each literal found deeper in the walk
			// gets its own independent analysis without double-reporting.
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					propTaintFunc(pass, fn.Body)
				}
			case *ast.FuncLit:
				propTaintFunc(pass, fn.Body)
			}
			return true
		})
	}
}

// propTaintFunc analyzes one function body: a first pass collects taint
// (draw sites), a second pass reports rewrites and tainted-sink
// violations. Nested function literals are analyzed separately — taint
// does not cross function boundaries.
func propTaintFunc(pass *Pass, body *ast.BlockStmt) {
	st := &propTaintState{
		pass:       pass,
		tainted:    make(map[types.Object]token.Pos),
		distSlices: make(map[types.Object]bool),
		drawnIdx:   make(map[types.Object]bool),
	}
	inspectShallow(body, st.collect)
	inspectShallow(body, st.check)
}

// inspectShallow walks the block like ast.Inspect but does not descend
// into nested function literals (they get their own analysis).
func inspectShallow(body *ast.BlockStmt, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		keep := fn(n, stack)
		stack = append(stack, n)
		if !keep {
			// Still push/pop symmetrically: ast.Inspect will not call us
			// with nil for a pruned subtree, so pop here.
			stack = stack[:len(stack)-1]
			return false
		}
		return true
	})
}

// collect is the taint-introduction pass over assignment statements.
func (st *propTaintState) collect(n ast.Node, _ []ast.Node) bool {
	as, ok := n.(*ast.AssignStmt)
	if !ok || (as.Tok != token.DEFINE && as.Tok != token.ASSIGN) {
		return true
	}
	// Tuple form a, p := Sample(...): every float64 LHS is tainted.
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		if call, isCall := unparen(as.Rhs[0]).(*ast.CallExpr); isCall {
			name := baseName(call.Fun)
			if samplerName(name) {
				for _, lhs := range as.Lhs {
					if id, isID := lhs.(*ast.Ident); isID && st.floatVar(id) {
						st.taint(id, call.Pos())
					}
				}
			}
			if categoricalName(name) {
				for _, lhs := range as.Lhs {
					st.mark(lhs, st.drawnIdx)
				}
			}
		}
		return true
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		id, isID := lhs.(*ast.Ident)
		if !isID {
			continue
		}
		rhs := unparen(as.Rhs[i])
		switch r := rhs.(type) {
		case *ast.CallExpr:
			name := baseName(r.Fun)
			switch {
			case samplerName(name) && st.floatVar(id):
				st.taint(id, r.Pos())
			case categoricalName(name):
				st.mark(id, st.drawnIdx)
			case name == "Distribution":
				st.mark(id, st.distSlices)
			}
		case *ast.IndexExpr:
			if st.propIndex(r) && st.floatVar(id) {
				st.taint(id, r.Pos())
			}
		}
	}
	return true
}

// floatVar reports whether the identifier denotes a float-typed variable.
func (st *propTaintState) floatVar(id *ast.Ident) bool {
	obj := st.obj(id)
	if obj == nil {
		return false
	}
	b, ok := obj.Type().Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// obj resolves an identifier to its object, through Defs or Uses.
func (st *propTaintState) obj(id *ast.Ident) types.Object {
	if o := st.pass.Info.Defs[id]; o != nil {
		return o
	}
	return st.pass.Info.Uses[id]
}

func (st *propTaintState) taint(id *ast.Ident, pos token.Pos) {
	if obj := st.obj(id); obj != nil {
		if _, seen := st.tainted[obj]; !seen {
			st.tainted[obj] = pos
		}
	}
}

func (st *propTaintState) mark(e ast.Expr, set map[types.Object]bool) {
	if id, ok := e.(*ast.Ident); ok {
		if obj := st.obj(id); obj != nil {
			set[obj] = true
		}
	}
}

// propIndex reports whether an index expression reads a sampled
// propensity: the slice came from Distribution(...), or the index was
// drawn by Categorical(...).
func (st *propTaintState) propIndex(ix *ast.IndexExpr) bool {
	if id, ok := unparen(ix.X).(*ast.Ident); ok {
		if obj := st.obj(id); obj != nil && st.distSlices[obj] {
			return true
		}
	}
	if id, ok := unparen(ix.Index).(*ast.Ident); ok {
		if obj := st.obj(id); obj != nil && st.drawnIdx[obj] {
			return true
		}
	}
	return false
}

// taintedIdent resolves e to a tainted variable's object, requiring the
// use to sit after the draw.
func (st *propTaintState) taintedIdent(e ast.Expr) (types.Object, bool) {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return nil, false
	}
	obj := st.obj(id)
	if obj == nil {
		return nil, false
	}
	pos, tainted := st.tainted[obj]
	if !tainted || e.Pos() <= pos {
		return nil, false
	}
	return obj, true
}

// mentionsTainted reports whether any identifier under e resolves to a
// tainted variable (used after its draw).
func (st *propTaintState) mentionsTainted(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := st.obj(id); obj != nil {
				if pos, tainted := st.tainted[obj]; tainted && id.Pos() > pos {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// check is the violation pass.
func (st *propTaintState) check(n ast.Node, stack []ast.Node) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		st.checkAssign(n, stack)
	case *ast.IncDecStmt:
		if obj, ok := st.taintedIdent(n.X); ok {
			st.pass.Reportf(n.Pos(),
				"sampled propensity %q is rewritten (%s) between draw and log; log the drawn probability verbatim",
				obj.Name(), n.Tok)
		}
	case *ast.CompositeLit:
		st.checkCompositeLit(n)
	}
	return true
}

func (st *propTaintState) checkAssign(as *ast.AssignStmt, stack []ast.Node) {
	// Compound arithmetic on a tainted variable: p *= x, p /= n, ...
	if as.Tok != token.DEFINE && as.Tok != token.ASSIGN {
		for _, lhs := range as.Lhs {
			if obj, ok := st.taintedIdent(lhs); ok {
				st.pass.Reportf(as.TokPos,
					"sampled propensity %q is rewritten (%s) between draw and log; log the drawn probability verbatim",
					obj.Name(), as.Tok)
			}
		}
		return
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		rhs := unparen(as.Rhs[i])
		// Sink: writing into a Propensity field.
		if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "Propensity" {
			st.checkSinkValue(rhs)
			continue
		}
		obj, tainted := st.taintedIdent(lhs)
		if !tainted {
			continue
		}
		switch r := rhs.(type) {
		case *ast.BinaryExpr:
			if st.mentionsTainted(r) {
				st.pass.Reportf(as.TokPos,
					"sampled propensity %q is recomputed from arithmetic over itself between draw and log; log the drawn probability verbatim",
					obj.Name())
				continue
			}
		case *ast.CallExpr:
			if clampishName(baseName(r.Fun)) && st.mentionsTainted(r) {
				st.pass.Reportf(as.TokPos,
					"sampled propensity %q is clamped through %s between draw and log; clamp the importance weight downstream instead",
					obj.Name(), types.ExprString(r.Fun))
				continue
			}
		}
		// Clamp spelled as control flow: overwriting p under a branch
		// conditioned on p itself (if p < eps { p = eps }).
		if cond := enclosingCondMentioning(stack, obj, st.pass.Info); cond != nil {
			st.pass.Reportf(as.TokPos,
				"sampled propensity %q is overwritten under a branch conditioned on itself (%s) — a clamp in control-flow clothing; log the drawn probability verbatim",
				obj.Name(), types.ExprString(cond))
		}
	}
}

// checkCompositeLit flags Propensity: fields of composite literals whose
// value rewrites a propensity.
func (st *propTaintState) checkCompositeLit(lit *ast.CompositeLit) {
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != "Propensity" {
			continue
		}
		st.checkSinkValue(unparen(kv.Value))
	}
}

// checkSinkValue flags a value being logged as a propensity when it is
// arithmetic or a clamp over propensity-like operands. Compile-time
// constants (1.0/3 for a known uniform logger) are exact and exempt.
func (st *propTaintState) checkSinkValue(v ast.Expr) {
	if tv, ok := st.pass.Info.Types[v]; ok && tv.Value != nil {
		return
	}
	switch v := v.(type) {
	case *ast.BinaryExpr:
		if st.propensityish(v) {
			st.pass.Reportf(v.Pos(),
				"propensity field is assigned arithmetic %q instead of the sampled probability; compute the probability once at the draw and log it verbatim",
				types.ExprString(v))
		}
	case *ast.CallExpr:
		if clampishName(baseName(v.Fun)) && st.propensityish(v) {
			st.pass.Reportf(v.Pos(),
				"propensity field is assigned clamped value %q; log the sampled probability verbatim and clamp the importance weight downstream",
				types.ExprString(v))
		}
	}
}

// propensityish reports whether the expression involves a tainted variable
// or a propensity-named operand — the trigger for sink findings.
func (st *propTaintState) propensityish(e ast.Expr) bool {
	if st.mentionsTainted(e) {
		return true
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if propDivName(n.Name) {
				found = true
			}
		case *ast.SelectorExpr:
			if propDivName(n.Sel.Name) {
				found = true
			}
		}
		return !found
	})
	return found
}

// enclosingCondMentioning returns the condition of the innermost enclosing
// if/switch whose condition mentions obj, or nil.
func enclosingCondMentioning(stack []ast.Node, obj types.Object, info *types.Info) ast.Expr {
	for i := len(stack) - 1; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		mentions := false
		ast.Inspect(ifs.Cond, func(n ast.Node) bool {
			if id, isID := n.(*ast.Ident); isID {
				if info.Uses[id] == obj {
					mentions = true
				}
			}
			return !mentions
		})
		if mentions {
			return ifs.Cond
		}
	}
	return nil
}
