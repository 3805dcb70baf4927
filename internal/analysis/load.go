package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path   string
	Dir    string
	IsMain bool
	Fset   *token.FileSet
	Files  []*ast.File
	Types  *types.Package
	Info   *types.Info
}

// listedPackage is the subset of `go list -deps -export -json` output
// the loader consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
}

// Load resolves package patterns (./..., specific import paths)
// through the go tool, parses and type-checks each matched package
// once from source, and returns them ready for RunAnalyzers. Imports
// resolve from the export data `go list -export` leaves in the build
// cache, so no dependency is type-checked from source. It must run
// inside the module being vetted; a package that does not build fails
// the load with the go command's error output.
func Load(patterns ...string) ([]*Package, error) {
	listed, exports, err := listPackages(patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(file)
	})
	var out []*Package
	for _, lp := range listed {
		pkg, err := check(fset, imp, lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			return out, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// listPackages resolves package patterns through the go tool. It
// returns the matched packages that have Go files, sorted by import
// path, and the export data file of every package in their import
// graph.
func listPackages(patterns []string) ([]listedPackage, map[string]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,DepOnly"}, patterns...)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("analysis: go list %s: %v\n%s",
			strings.Join(patterns, " "), err, stderr.String())
	}
	var listed []listedPackage
	exports := map[string]string{}
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		exports[lp.ImportPath] = lp.Export
		if !lp.DepOnly && len(lp.GoFiles) > 0 {
			listed = append(listed, lp)
		}
	}
	sort.Slice(listed, func(i, j int) bool { return listed[i].ImportPath < listed[j].ImportPath })
	return listed, exports, nil
}

// LoadDir loads a single package from the .go files directly inside
// dir (tests load fixture packages this way; pkgPath stands in for the
// import path). Only standard-library imports resolve, from the
// export data the go command finds for them.
func LoadDir(dir, pkgPath string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		names = append(names, e.Name())
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	sort.Strings(names)
	fset := token.NewFileSet()
	return check(fset, importer.ForCompiler(fset, "gc", nil), pkgPath, dir, names)
}

// check parses and type-checks one package.
func check(fset *token.FileSet, imp types.Importer, path, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return &Package{
		Path:   path,
		Dir:    dir,
		IsMain: tpkg.Name() == "main",
		Fset:   fset,
		Files:  files,
		Types:  tpkg,
		Info:   info,
	}, nil
}
