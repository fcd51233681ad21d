package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked module package, ready for
// analysis.
type Package struct {
	// Path is the import path ("repro/internal/ope").
	Path string
	// Dir is the absolute directory the files were read from.
	Dir string
	// Fset is the file set shared by every package of one load.
	Fset *token.FileSet
	// Files holds the parsed non-test source files, sorted by file name.
	Files []*ast.File
	// Types and Info are the type-checker outputs.
	Types *types.Package
	Info  *types.Info
}

// listed is the part of one `go list -json` record the loader reads.
// Without -e, go list fails on an erroneous package instead of listing it,
// so there is no Error field to check.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Module     *struct {
		Main bool
		Dir  string
	}
}

// Load asks `go list`, run in dir, for the packages matching patterns and
// their dependencies, then type-checks every non-standard one from source
// in the order the toolchain lists them, dependencies first. The standard
// library comes from the compiler's source importer, so nothing needs
// export data or x/tools. It returns the main-module packages the
// patterns matched, sorted by import path, and the main module's root.
func Load(dir string, patterns ...string) (pkgs []*Package, root string, err error) {
	args := append([]string{"list", "-deps",
		"-json=ImportPath,Dir,GoFiles,Standard,DepOnly,Module", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, "", fmt.Errorf("lint: go list: %v\n%s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	fset := token.NewFileSet()
	imp := &importerFrom{
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		done: make(map[string]*types.Package),
	}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp listed
		if err := dec.Decode(&lp); err != nil {
			return nil, "", fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		srcs := make([]string, len(lp.GoFiles))
		for i, name := range lp.GoFiles {
			srcs[i] = filepath.Join(lp.Dir, name)
		}
		pkg, err := check(fset, lp.Dir, lp.ImportPath, srcs, imp)
		if err != nil {
			return nil, "", err
		}
		imp.done[lp.ImportPath] = pkg.Types
		if !lp.DepOnly && lp.Module != nil && lp.Module.Main {
			pkgs = append(pkgs, pkg)
			root = lp.Module.Dir
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, root, nil
}

// importerFrom serves packages Load has already checked and sends
// everything else (the standard library) to the source importer.
type importerFrom struct {
	std  types.ImporterFrom
	done map[string]*types.Package
}

func (im *importerFrom) Import(path string) (*types.Package, error) {
	return im.ImportFrom(path, "", 0)
}

func (im *importerFrom) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "C" {
		return nil, errors.New("lint: cgo is not supported")
	}
	if pkg, ok := im.done[path]; ok {
		return pkg, nil
	}
	return im.std.ImportFrom(path, dir, mode)
}

// LoadDir parses and type-checks the non-test .go files of one directory
// as the package pkgPath, resolving all imports (standard library only)
// from source. The golden-file tests use it to load fixtures under any
// import path, so path-conditional analyzers (walltime, errdrop, the
// rawrand exemption) can be exercised without real module layout.
func LoadDir(dir, pkgPath string) (*Package, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var srcs []string
	for _, m := range matches {
		if !strings.HasSuffix(m, "_test.go") {
			srcs = append(srcs, m)
		}
	}
	fset := token.NewFileSet()
	return check(fset, dir, pkgPath, srcs, importer.ForCompiler(fset, "source", nil))
}

// check parses and type-checks one package's files.
func check(fset *token.FileSet, dir, pkgPath string, srcs []string, imp types.Importer) (*Package, error) {
	if len(srcs) == 0 {
		return nil, fmt.Errorf("lint: no Go source files in %s", dir)
	}
	files := make([]*ast.File, 0, len(srcs))
	for _, src := range srcs {
		f, err := parser.ParseFile(fset, src, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", pkgPath, err)
	}
	return &Package{Path: pkgPath, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
