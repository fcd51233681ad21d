package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrDrop flags statements in internal/... packages that call a function
// returning an error and throw the result away. A dropped error in the
// harvesting pipeline usually means a datapoint silently vanished or a
// checkpoint silently failed — both corrupt estimates without crashing.
// Explicit discards (`_ = f()`) are allowed: they are visible in review.
// Deferred Close/Flush/Sync and the fmt print family are allowlisted as
// idioms whose errors are conventionally unactionable.
var ErrDrop = &Analyzer{
	Name:  "errdrop",
	Scope: func(pkgPath string) bool { return strings.Contains(pkgPath, "internal/") },
	Run:   runErrDrop,
}

// errDropDeferAllowed lists method/function names whose deferred error is
// conventionally dropped.
var errDropDeferAllowed = map[string]bool{
	"Close": true,
	"Flush": true,
	"Sync":  true,
}

func runErrDrop(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDroppedCall(pass, call, false)
				}
			case *ast.DeferStmt:
				checkDroppedCall(pass, n.Call, true)
				return false // the call itself is handled; skip re-visiting
			}
			return true
		})
	}
}

func checkDroppedCall(pass *Pass, call *ast.CallExpr, deferred bool) {
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	if !returnsError(pass.Info, call) {
		return
	}
	name := calleeName(call)
	if isFmtPrint(pass.Info, call) {
		return
	}
	if isInfallibleWriter(pass.Info, call) {
		return
	}
	if deferred {
		if errDropDeferAllowed[lastSelector(name)] {
			return
		}
		pass.Reportf(call.Pos(),
			"deferred call to %s discards its error; handle it in a deferred closure or //lint:ignore with a reason", name)
		return
	}
	pass.Reportf(call.Pos(),
		"result of %s contains an error that is discarded; handle it or assign it explicitly", name)
}

// returnsError reports whether the call's result type is error or a tuple
// containing an error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	errType := types.Universe.Lookup("error").Type()
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if types.Identical(t.At(i).Type(), errType) {
				return true
			}
		}
		return false
	default:
		return types.Identical(t, errType)
	}
}

// isFmtPrint reports whether the call resolves to one of fmt's print
// functions, whose error results are conventionally ignored.
func isFmtPrint(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkgPath, name, ok := pkgFuncCall(info, sel)
	if !ok || pkgPath != "fmt" {
		return false
	}
	switch name {
	case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
		return true
	}
	return false
}

// isInfallibleWriter reports whether the call is a method on
// bytes.Buffer or strings.Builder, whose Write* methods are documented to
// always return a nil error (they grow the buffer or panic on overflow).
func isInfallibleWriter(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "bytes.Buffer", "strings.Builder":
		return true
	}
	return false
}

// calleeName renders the called expression for the message.
func calleeName(call *ast.CallExpr) string {
	return types.ExprString(call.Fun)
}

// lastSelector returns the final dotted component of a rendered callee.
func lastSelector(name string) string {
	if i := strings.LastIndex(name, "."); i >= 0 {
		return name[i+1:]
	}
	return name
}
