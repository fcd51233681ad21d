// Command harvestlint runs the repository's static analyzers (package
// repro/internal/lint) over every package in the enclosing module and
// prints findings as
//
//	file:line:col: [analyzer] message
//
// It exits 0 when the tree is clean, 1 when there are findings, and 2 on
// usage or load errors. Arguments are package patterns relative to the
// current directory: "./..." (the default) lints the whole module,
// "./internal/..." a subtree, and "./internal/ope" a single package.
//
// Every registered analyzer runs; -list enumerates them. -json emits the
// findings as machine-readable diagnostics for CI.
//
// Wire-format locking: -wirelock regenerates internal/lint/wire.lock
// from the watched wire structs, refusing any struct whose field set
// changed while its guarding version constant did not (see the
// wirecompat analyzer).
//
// Findings are suppressed by an annotated comment on the same line or the
// line above:
//
//	//lint:ignore <analyzer> <reason>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("harvestlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list registered analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of text")
	wirelock := fs.Bool("wirelock", false, "regenerate "+lint.WireLockPath+" from the watched wire structs and exit")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: harvestlint [-json] [-wirelock] [-list] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "harvestlint: %v\n", err)
		return 2
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintf(stderr, "harvestlint: %v\n", err)
		return 2
	}
	lockPath := filepath.Join(root, filepath.FromSlash(lint.WireLockPath))
	if data, err := os.ReadFile(lockPath); err == nil {
		lock, perr := lint.ParseWireLock(data)
		if perr != nil {
			fmt.Fprintf(stderr, "harvestlint: %v\n", perr)
			return 2
		}
		lint.SetWireLock(lock)
	}
	pkgs, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintf(stderr, "harvestlint: %v\n", err)
		return 2
	}
	if *wirelock {
		return regenWireLock(pkgs, lockPath, stdout, stderr)
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	var findings []lint.Finding
	matched := false
	for _, pkg := range pkgs {
		if !matchAny(patterns, cwd, pkg.Dir) {
			continue
		}
		matched = true
		findings = append(findings, lint.RunPackage(pkg, analyzers)...)
	}
	if !matched {
		fmt.Fprintf(stderr, "harvestlint: no packages match %v\n", patterns)
		return 2
	}
	lint.Sort(findings)

	for i := range findings {
		findings[i].Pos.Filename = relTo(cwd, findings[i].Pos.Filename)
	}
	if *jsonOut {
		if err := writeJSON(stdout, findings); err != nil {
			fmt.Fprintf(stderr, "harvestlint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// jsonFinding is the -json wire shape of one finding.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func writeJSON(out *os.File, findings []lint.Finding) error {
	js := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		js = append(js, jsonFinding{
			File:     f.Pos.Filename,
			Line:     f.Pos.Line,
			Column:   f.Pos.Column,
			Analyzer: f.Analyzer,
			Message:  f.Message,
		})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(js)
}

// regenWireLock rebuilds the lockfile from the loaded packages. When an
// existing lock is loaded, any watched struct whose field set changed
// without its guarding version constant moving aborts the regeneration:
// schema changes must ride with a deliberate bump.
func regenWireLock(pkgs []*lint.Package, lockPath string, stdout, stderr *os.File) int {
	next := lint.NewWireLock()
	for _, pkg := range pkgs {
		lint.MergeWireLock(next, lint.WireEntries(pkg))
	}
	if bad := lint.CheckWireBump(lint.CurrentWireLock(), next); len(bad) > 0 {
		for _, key := range bad {
			fmt.Fprintf(stderr, "harvestlint: wire struct %s changed but its version constant did not; bump it before regenerating\n", key)
		}
		return 1
	}
	if err := os.MkdirAll(filepath.Dir(lockPath), 0o755); err != nil {
		fmt.Fprintf(stderr, "harvestlint: %v\n", err)
		return 2
	}
	if err := os.WriteFile(lockPath, lint.FormatWireLock(next), 0o644); err != nil {
		fmt.Fprintf(stderr, "harvestlint: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "harvestlint: wrote %s (%d consts, %d structs)\n",
		lockPath, len(next.Consts), len(next.Structs))
	return 0
}

// matchAny reports whether the package directory matches any pattern
// interpreted relative to cwd. "dir/..." matches the subtree rooted at
// dir; anything else must name the package directory exactly.
func matchAny(patterns []string, cwd, pkgDir string) bool {
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				return true
			}
		}
		abs := pat
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(cwd, pat)
		}
		abs = filepath.Clean(abs)
		if pkgDir == abs {
			return true
		}
		if recursive && strings.HasPrefix(pkgDir, abs+string(filepath.Separator)) {
			return true
		}
	}
	return false
}

// relTo renders path relative to base when that is shorter and stays
// inside base; absolute otherwise.
func relTo(base, path string) string {
	rel, err := filepath.Rel(base, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}
