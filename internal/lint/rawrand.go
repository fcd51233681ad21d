package lint

import (
	"go/ast"
)

// rawrandApproved lists the packages allowed to construct math/rand
// generators directly: the seeded RNG plumbing every experiment threads,
// and the deterministic replicate scheduler, which materializes one
// generator per (rootSeed, replicateIndex) substream — seed-threaded by
// construction. Everywhere else, rand.New hides a seed from the logs and
// breaks paired-seed reproducibility.
var rawrandApproved = map[string]bool{
	"repro/internal/stats":    true,
	"repro/internal/parallel": true,
}

// rawrandGlobal lists the math/rand (and math/rand/v2) top-level functions
// that draw from the process-global source. The global source is never
// acceptable: its draws are unlogged, unseeded, and shared across
// goroutines, so no propensity can be attributed to them.
var rawrandGlobal = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
	// math/rand/v2 spellings.
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "Uint": true, "UintN": true, "Uint32N": true, "Uint64N": true,
}

// RawRand flags randomness that escapes the seeded RNG plumbing: any use
// of a math/rand global-source function, and any rand.New outside
// repro/internal/stats. Fix by threading a *rand.Rand from stats.NewRand
// or stats.Split.
var RawRand = &Analyzer{
	Name: "rawrand",
	Run:  runRawRand,
}

func runRawRand(pass *Pass) {
	approved := rawrandApproved[pass.Pkg.Path()]
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgPath, name, ok := pkgFuncCall(pass.Info, sel)
			if !ok || (pkgPath != "math/rand" && pkgPath != "math/rand/v2") {
				return true
			}
			switch {
			case rawrandGlobal[name]:
				pass.Reportf(sel.Sel.Pos(),
					"%s.%s draws from the process-global source; thread a seeded *rand.Rand (repro/internal/stats.NewRand/Split) instead",
					pkgPath, name)
			case name == "New" && !approved:
				pass.Reportf(sel.Sel.Pos(),
					"rand.New outside the approved RNG plumbing; construct generators with repro/internal/stats.NewRand or stats.Split so every stream is seed-threaded")
			}
			return true
		})
	}
}
