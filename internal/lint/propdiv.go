package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PropDiv flags divisions whose denominator is a propensity-, weight- or
// probability-named expression unless the division is dominated by a
// positivity guard or the denominator flows through a clip-style call.
// IPS-family estimators divide by logged propensities on every datapoint;
// one unguarded p = 0 silently poisons an estimate with ±Inf, so every
// such division must either sit under an explicit `p > 0` check, follow an
// early-exit guard, or route through core.ImportanceWeight.
var PropDiv = &Analyzer{
	Name: "propdiv",
	Run:  runPropDiv,
}

// propDivName reports whether an expression's base name looks like a
// propensity, importance weight, or probability. Bare p and w are the
// repo's conventional spellings in estimator hot loops.
func propDivName(name string) bool {
	if name == "" {
		return false
	}
	lower := strings.ToLower(name)
	if lower == "p" || lower == "w" {
		return true
	}
	for _, sub := range []string{"prop", "prob", "weight", "pscore"} {
		if strings.Contains(lower, sub) {
			return true
		}
	}
	return false
}

// guardishName reports whether a called function's name implies the result
// is already positivity-protected (clipped, clamped, floored, ...).
func guardishName(name string) bool {
	lower := strings.ToLower(name)
	for _, sub := range []string{"clip", "clamp", "max", "floor", "safe", "guard", "positive"} {
		if strings.Contains(lower, sub) {
			return true
		}
	}
	return false
}

// baseName extracts the name propdiv matches against: the final selector
// component, the indexed base, or the called function's name.
func baseName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return baseName(e.X)
	case *ast.ParenExpr:
		return baseName(e.X)
	case *ast.StarExpr:
		return baseName(e.X)
	case *ast.CallExpr:
		return baseName(e.Fun)
	case *ast.UnaryExpr:
		return baseName(e.X)
	}
	return ""
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func runPropDiv(pass *Pass) {
	for _, file := range pass.Files {
		walkWithStack(file, func(stack []ast.Node, n ast.Node) {
			var denom ast.Expr
			var pos token.Pos
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.QUO {
					return
				}
				denom, pos = unparen(n.Y), n.OpPos
			case *ast.AssignStmt:
				if n.Tok != token.QUO_ASSIGN || len(n.Rhs) != 1 {
					return
				}
				denom, pos = unparen(n.Rhs[0]), n.TokPos
			default:
				return
			}
			name := baseName(denom)
			if !propDivName(name) {
				return
			}
			if !isFloatish(pass.Info, denom) {
				return
			}
			if _, isCall := denom.(*ast.CallExpr); isCall && guardishName(name) {
				return
			}
			denomText := types.ExprString(denom)
			if dominatedByGuard(stack, denomText) {
				return
			}
			pass.Reportf(pos,
				"division by propensity-like expression %q is not dominated by a positivity guard or clip; check %s > 0 first or route through core.ImportanceWeight",
				denomText, denomText)
		})
	}
}

// isFloatish reports whether the expression has floating-point type (or no
// recorded type, in which case propdiv stays conservative and keeps the
// candidate). Propensities, weights and probabilities are always floats;
// integer divisions named "weight" are histogram arithmetic, not IPS.
func isFloatish(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return true
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&types.IsFloat != 0 || b.Kind() == types.UntypedFloat
}

// dominatedByGuard applies the positivity-dominance heuristic: the
// division is considered safe when (a) an enclosing if statement's
// condition mentions the denominator, or (b) an earlier statement in any
// enclosing block is an if that mentions the denominator and ends by
// leaving the function or loop (an early-exit guard), or (c) an earlier
// statement in any enclosing block reassigns the denominator through a
// clip-style call.
func dominatedByGuard(stack []ast.Node, denomText string) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch anc := stack[i].(type) {
		case *ast.IfStmt:
			// Inside the body or else of `if ... p ... { }`. Being in the
			// condition itself (e.g. `if pi/p > 1`) does not count.
			inCond := i+1 < len(stack) && stack[i+1] == anc.Cond
			if !inCond && mentionsExpr(types.ExprString(anc.Cond), denomText) {
				return true
			}
		case *ast.BlockStmt:
			if precededByGuard(anc.List, stack, i, denomText) {
				return true
			}
		case *ast.CaseClause:
			if precededByGuard(anc.Body, stack, i, denomText) {
				return true
			}
		case *ast.FuncDecl, *ast.FuncLit:
			// Dominance does not cross function boundaries: a guard in the
			// enclosing function says nothing about a closure that may run
			// later.
			return false
		}
	}
	return false
}

// precededByGuard scans the statements of an enclosing block that execute
// strictly before the one leading to the division.
func precededByGuard(stmts []ast.Stmt, stack []ast.Node, depth int, denomText string) bool {
	if depth+1 >= len(stack) {
		return false
	}
	var upto int = -1
	for idx, s := range stmts {
		if s == stack[depth+1] {
			upto = idx
			break
		}
	}
	for idx := 0; idx < upto; idx++ {
		switch s := stmts[idx].(type) {
		case *ast.IfStmt:
			if mentionsExpr(types.ExprString(s.Cond), denomText) && terminates(s.Body) {
				return true
			}
		case *ast.AssignStmt:
			for li, lhs := range s.Lhs {
				if types.ExprString(lhs) != denomText || li >= len(s.Rhs) {
					continue
				}
				if call, ok := unparen(s.Rhs[li]).(*ast.CallExpr); ok && guardishName(baseName(call.Fun)) {
					return true
				}
			}
		}
	}
	return false
}

// terminates reports whether a block always leaves the surrounding
// function or loop iteration: its last statement is a return, branch,
// panic, or fatal-exit call.
func terminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return last.Tok == token.BREAK || last.Tok == token.CONTINUE || last.Tok == token.GOTO
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		switch fn := types.ExprString(call.Fun); {
		case fn == "panic", fn == "os.Exit":
			return true
		case strings.HasSuffix(fn, ".Fatal"), strings.HasSuffix(fn, ".Fatalf"):
			return true
		}
	}
	return false
}
