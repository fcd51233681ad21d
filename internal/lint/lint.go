// Package lint is a repo-specific static analyzer enforcing the two
// invariants this reproduction's credibility rests on, plus a few general
// hygiene checks. Off-policy estimates are only unbiased when (1) every
// random draw flows through the seeded, logged RNG plumbing in
// repro/internal/stats (an unseeded math/rand call silently destroys
// paired-seed reproducibility), and (2) no IPS/SNIPS hot path divides by an
// unguarded propensity (§2 and §4 of the paper). The compiler checks
// neither, so harvestlint does.
//
// The driver is built only on the standard library's go/parser, go/ast,
// go/types and go/token — no golang.org/x/tools dependency — and runs a
// registry of analyzers over every package in the module:
//
//   - rawrand:  math/rand global-source calls and rand.New outside the
//     approved repro/internal/stats plumbing
//   - propdiv:  divisions by propensity/weight/probability-named
//     expressions not dominated by a positivity guard or clip
//   - walltime: time.Now/time.Since inside deterministic simulation
//     packages (des, healthsim, cachesim, lbsim)
//   - lockcopy: functions passing or returning by value a struct that
//     contains a sync.Mutex, sync.RWMutex or sync.WaitGroup
//   - errdrop:  discarded error returns in internal/... packages
//
// and four dataflow-aware invariant analyses (DESIGN.md §11):
//
//   - proptaint:  arithmetic, clamping, or branch rewrites applied to a
//     sampled propensity between the sampler draw and the logged
//     Datapoint.Propensity field — the bug class that silently biases IPS
//   - detorder:   `for range` over a map whose body writes serialized
//     output or folds into an order-sensitive accumulator without sorted
//     keys (the nondeterministic /metrics bug class)
//   - wirecompat: versioned wire-struct field sets diffed against
//     lint/wire.lock, so schema drift always rides with a version bump
//   - ctxloop:    blocking channel operations or sleeps inside loops that
//     never consult an in-scope context (the CacheLogSource bug class)
//
// Any finding can be suppressed with a directive comment on the same line
// or the line above:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory; a directive without one is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Finding is one analyzer hit, rendered as "file:line:col: [name] message".
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the canonical output format.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one registered check. Run reports findings through the pass.
type Analyzer struct {
	// Name is the identifier used in output and in //lint:ignore directives.
	Name string
	// Doc is a one-line description shown by harvestlint -list.
	Doc string
	// Run inspects the package and calls pass.Reportf for each finding.
	Run func(*Pass)
}

// All returns the full analyzer registry in output order.
func All() []*Analyzer {
	return []*Analyzer{RawRand, PropDiv, WallTime, LockCopy, ErrDrop,
		PropTaint, DetOrder, WireCompat, CtxLoop}
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos      token.Position
	analyzer string
	reason   string
}

// parseIgnores extracts //lint:ignore directives from a file. Malformed
// directives (missing analyzer name or reason) are reported as findings of
// the pseudo-analyzer "lint" so they cannot silently suppress nothing.
func parseIgnores(fset *token.FileSet, file *ast.File, known map[string]bool) (dirs []ignoreDirective, bad []Finding) {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//")
			if !ok {
				continue // block comments are not directives
			}
			text, ok = strings.CutPrefix(strings.TrimLeft(text, " \t"), "lint:ignore")
			if !ok {
				continue
			}
			fields := strings.Fields(text)
			pos := fset.Position(c.Pos())
			if len(fields) < 2 {
				bad = append(bad, Finding{Pos: pos, Analyzer: "lint",
					Message: "malformed //lint:ignore directive: need \"//lint:ignore <analyzer> <reason>\""})
				continue
			}
			if !known[fields[0]] {
				bad = append(bad, Finding{Pos: pos, Analyzer: "lint",
					Message: fmt.Sprintf("//lint:ignore names unknown analyzer %q", fields[0])})
				continue
			}
			dirs = append(dirs, ignoreDirective{pos: pos, analyzer: fields[0], reason: strings.Join(fields[1:], " ")})
		}
	}
	return dirs, bad
}

// RunPackage runs the analyzers over one loaded package and returns the
// surviving (non-suppressed) findings sorted by position.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Finding {
	// Directives are validated against the full registry, not the given
	// subset: a run with some analyzers must not misreport a suppression of
	// another as unknown.
	known := make(map[string]bool, len(analyzers))
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var findings []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			findings: &findings,
		}
		a.Run(pass)
	}

	// Apply suppression: a directive for analyzer X at line L silences X's
	// findings on line L (trailing comment) and line L+1 (standalone
	// comment above the offending statement).
	suppressed := make(map[string]bool) // "file:line:analyzer"
	var out []Finding
	for _, file := range pkg.Files {
		dirs, bad := parseIgnores(pkg.Fset, file, known)
		out = append(out, bad...)
		for _, d := range dirs {
			suppressed[fmt.Sprintf("%s:%d:%s", d.pos.Filename, d.pos.Line, d.analyzer)] = true
			suppressed[fmt.Sprintf("%s:%d:%s", d.pos.Filename, d.pos.Line+1, d.analyzer)] = true
		}
	}
	for _, f := range findings {
		if suppressed[fmt.Sprintf("%s:%d:%s", f.Pos.Filename, f.Pos.Line, f.Analyzer)] {
			continue
		}
		out = append(out, f)
	}
	Sort(out)
	return out
}

// Sort orders findings by file, line, column, then analyzer name.
func Sort(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// walkWithStack traverses the file calling fn with the ancestor stack
// (outermost first, not including n itself) for every node. Analyzers that
// need dominance context (propdiv) use this instead of ast.Inspect.
func walkWithStack(file *ast.File, fn func(stack []ast.Node, n ast.Node)) {
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		fn(stack, n)
		stack = append(stack, n)
		return true
	})
}

// pkgFuncCall resolves a call/selector of the form pkgname.Func where
// pkgname is an imported package identifier, returning the imported
// package's path and the selected name. ok is false for method calls,
// locals, and non-selector expressions.
func pkgFuncCall(info *types.Info, sel *ast.SelectorExpr) (pkgPath, name string, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// identLike matches a rendered expression occurrence on identifier
// boundaries: the characters on both sides must not extend the expression
// (letters, digits, underscore, or a selector dot).
var identBoundary = regexp.MustCompile(`[A-Za-z0-9_.]`)

// mentionsExpr reports whether the rendered expression hay mentions the
// rendered expression needle on clean token boundaries. It is the textual
// core of the propdiv dominance heuristic.
func mentionsExpr(hay, needle string) bool {
	if needle == "" {
		return false
	}
	for i := 0; ; {
		j := strings.Index(hay[i:], needle)
		if j < 0 {
			return false
		}
		j += i
		before := j == 0 || !identBoundary.MatchString(hay[j-1:j])
		end := j + len(needle)
		after := end == len(hay) || !identBoundary.MatchString(hay[end:end+1])
		if before && after {
			return true
		}
		i = j + 1
	}
}
