package analysis

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
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// A Package is one loaded, typechecked target package.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info

	// GoVersion is the module's language version ("go1.22"), the version
	// the package is typechecked at; empty when the go tool reports none.
	GoVersion string

	// TypeErrors holds typechecking problems. A package with type errors
	// still carries partial information, but analyzer results on it are
	// unreliable; the registry's lint gate fails on any of them.
	TypeErrors []error
}

// listPkg mirrors the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Module     *struct{ GoVersion string }
	Error      *struct{ Err string }
}

// Load resolves the given go-tool patterns (e.g. "./...") relative to dir
// and returns the matched packages, parsed and typechecked. Dependencies —
// both in-module and standard library — are imported from compiler export
// data produced by `go list -export`, so only the target packages are
// typechecked from source. Test files are not loaded: the lint rules govern
// library code, while tests are free to, e.g., compare floats exactly
// against goldens.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=Dir,ImportPath,Name,GoFiles,Export,DepOnly,Standard,Module,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list: %v\n%s", err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard && len(p.GoFiles) > 0 {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(f)
	}
	// One shared importer so dependency packages are loaded once and share
	// identity across targets.
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, t := range targets {
		pkg, err := check(fset, imp, t)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// check parses and typechecks one target package.
func check(fset *token.FileSet, imp types.Importer, t listPkg) (*Package, error) {
	var files []*ast.File
	for _, gf := range t.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(t.Dir, gf), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		files = append(files, f)
	}
	pkg := &Package{
		ImportPath: t.ImportPath,
		Fset:       fset,
		Files:      files,
		TypesInfo: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Implicits:  make(map[ast.Node]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		},
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	if t.Module != nil && t.Module.GoVersion != "" {
		// Typecheck at the module's language version, as the compiler does,
		// so version-gated features are accepted and per-file //go:build
		// downgrades apply.
		pkg.GoVersion = "go" + t.Module.GoVersion
		conf.GoVersion = pkg.GoVersion
	}
	tp, err := conf.Check(t.ImportPath, fset, files, pkg.TypesInfo)
	if err != nil && len(pkg.TypeErrors) == 0 {
		pkg.TypeErrors = append(pkg.TypeErrors, err)
	}
	pkg.Types = tp
	return pkg, nil
}
