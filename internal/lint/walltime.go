package lint

import (
	"go/ast"
)

// walltimeDeterministic lists the discrete-event / simulation packages
// whose clocks must be virtual. A time.Now inside one of them couples the
// simulation to the host scheduler, so paired-seed runs stop being
// bit-identical and resimulation-based estimates drift.
var walltimeDeterministic = map[string]bool{
	"repro/internal/des":       true,
	"repro/internal/healthsim": true,
	"repro/internal/cachesim":  true,
	"repro/internal/lbsim":     true,
}

// walltimeObsPkg is the observability layer, which follows a different
// walltime discipline: time flows through an injected Clock so the tracer
// can run on virtual time in simulations, and the only sanctioned host
// clock read is the WallClock constructor path. A stray time.Now anywhere
// else in the package would silently pin telemetry to the host clock.
const walltimeObsPkg = "repro/internal/obs"

// walltimeInjected lists packages held to internal/obs's clock-injection
// rule: the daemon chassis serves every service, and each service's clock
// is its own Config.Clock.
var walltimeInjected = map[string]bool{
	"repro/internal/daemon": true,
}

// walltimeBanned is the set of wall-clock readers flagged inside
// deterministic packages. Duration arithmetic and time.Time values remain
// fine; only sampling the host clock is banned.
var walltimeBanned = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// WallTime flags wall-clock reads inside the deterministic simulation
// packages; simulations must advance their own virtual clock. In
// repro/internal/obs it enforces clock injection instead: host clock reads
// outside the WallClock constructor path are flagged.
var WallTime = &Analyzer{
	Name: "walltime",
	Doc:  "time.Now/time.Since inside deterministic simulation packages, outside the sanctioned WallClock path in internal/obs, or in the daemon chassis",
	Run:  runWallTime,
}

func runWallTime(pass *Pass) {
	obsMode := pass.Pkg.Path() == walltimeObsPkg || walltimeInjected[pass.Pkg.Path()]
	if !obsMode && !walltimeDeterministic[pass.Pkg.Path()] {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if obsMode && walltimeObsExempt(decl) {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkgPath, name, ok := pkgFuncCall(pass.Info, sel)
				if !ok || pkgPath != "time" || !walltimeBanned[name] {
					return true
				}
				if obsMode {
					pass.Reportf(sel.Sel.Pos(),
						"time.%s reads the host clock inside %s; time must flow through an injected Clock (only the WallClock constructor path may read it)",
						name, pass.Pkg.Path())
					return true
				}
				pass.Reportf(sel.Sel.Pos(),
					"time.%s reads the wall clock inside deterministic simulation package %s; advance the simulation's virtual clock instead",
					name, pass.Pkg.Path())
				return true
			})
		}
	}
}

// walltimeObsExempt reports whether decl is part of internal/obs's
// sanctioned wall-clock constructor path: the WallClock function itself or
// a method on its concrete wallClock type.
func walltimeObsExempt(decl ast.Decl) bool {
	fn, ok := decl.(*ast.FuncDecl)
	if !ok {
		return false
	}
	if fn.Recv == nil {
		return fn.Name.Name == "WallClock"
	}
	for _, field := range fn.Recv.List {
		t := field.Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok && id.Name == "wallClock" {
			return true
		}
	}
	return false
}
