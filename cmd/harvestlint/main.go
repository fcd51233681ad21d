// Command harvestlint runs the repository's static analyzers (package
// repro/internal/lint) over the enclosing module's packages and prints
// findings as
//
//	file:line:col: [analyzer] message
//
// It exits 0 when the tree is clean, 1 when there are findings, and 2 on
// usage or load errors. Arguments are package patterns, resolved by
// `go list` from the current directory: "./..." (the default) lints the
// whole module, "./internal/..." a subtree, and "./internal/ope" a single
// package. Every registered analyzer runs (the package doc of
// repro/internal/lint lists them). -json emits the findings as
// machine-readable diagnostics for CI.
//
// Wire-format locking: -wirelock regenerates internal/lint/wire.lock
// from the watched wire structs of every package in the module, refusing
// any struct whose field set changed while its guarding version constant
// did not (see the wirecompat analyzer).
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
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of text")
	wirelock := fs.Bool("wirelock", false, "regenerate "+lint.WireLockPath+" from the watched wire structs and exit")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: harvestlint [-json] [-wirelock] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if *wirelock {
		// The lock covers the whole module wherever harvestlint runs, and
		// "all" names every main-module package from any directory in it.
		patterns = []string{"all"}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "harvestlint: %v\n", err)
		return 2
	}
	pkgs, root, err := lint.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "harvestlint: %v\n", err)
		return 2
	}
	if len(pkgs) == 0 {
		fmt.Fprintf(stderr, "harvestlint: no packages match %v\n", patterns)
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
	if *wirelock {
		return regenWireLock(pkgs, lockPath, stdout, stderr)
	}

	var findings []lint.Finding
	for _, pkg := range pkgs {
		findings = append(findings, lint.RunPackage(pkg, lint.All())...)
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

// relTo renders path relative to base when that is shorter and stays
// inside base; absolute otherwise.
func relTo(base, path string) string {
	rel, err := filepath.Rel(base, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}
