package analysis

import (
	"strings"
	"testing"
)

// The loader must typecheck a real module package — including its
// in-module and standard-library imports — purely from export data.
func TestLoadTypechecksModulePackage(t *testing.T) {
	pkgs, err := Load(".", "../geom", "../tree")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			t.Errorf("%s: unexpected type errors: %v", pkg.ImportPath, pkg.TypeErrors)
		}
		if len(pkg.Files) == 0 {
			t.Errorf("%s: no files", pkg.ImportPath)
		}
		if len(pkg.TypesInfo.Types) == 0 {
			t.Errorf("%s: no expression types recorded", pkg.ImportPath)
		}
	}
	// tree imports geom; the import must resolve to a complete package.
	var treePkg *Package
	for _, pkg := range pkgs {
		if pkg.ImportPath == "sllt/internal/tree" {
			treePkg = pkg
		}
	}
	if treePkg == nil {
		t.Fatal("sllt/internal/tree not loaded")
	}
	for _, imp := range treePkg.Types.Imports() {
		if imp.Path() == "sllt/internal/geom" && !imp.Complete() {
			t.Error("geom import not complete")
		}
	}
}

// A pattern naming a directory that does not exist must be a load error,
// not an empty success.
func TestLoadNonexistentPackage(t *testing.T) {
	_, err := Load(".", "./testdata/src/does-not-exist")
	if err == nil {
		t.Fatal("Load of a nonexistent package succeeded")
	}
	if !strings.Contains(err.Error(), "analysis:") {
		t.Errorf("error %q does not carry the analysis: prefix", err)
	}
}

// A file that passes go list's shallow scan but fails the full parse must
// surface as a load error naming the file.
func TestLoadSyntaxError(t *testing.T) {
	_, err := Load(".", "./testdata/src/broken")
	if err == nil {
		t.Fatal("Load of a syntactically broken package succeeded")
	}
	if !strings.Contains(err.Error(), "broken.go") {
		t.Errorf("error %q does not name the broken file", err)
	}
}

// An import of a module that is neither required nor vendored must be a
// load error (go list -e reports it on the dependency entry).
func TestLoadUnresolvableImport(t *testing.T) {
	_, err := Load(".", "./testdata/src/badimport")
	if err == nil {
		t.Fatal("Load of a package with an unresolvable import succeeded")
	}
	if !strings.Contains(err.Error(), "vendored.example/missing/dep") {
		t.Errorf("error %q does not name the unresolvable import", err)
	}
}

// A package that parses but fails typechecking is rejected at list time:
// `go list -export` compiles targets to produce export data, so the compile
// failure arrives as a package error before our own typechecker runs. The
// error must name the offending file.
func TestLoadTypeErrors(t *testing.T) {
	_, err := Load(".", "./testdata/src/typeerr")
	if err == nil {
		t.Fatal("Load of a package that does not typecheck succeeded")
	}
	if !strings.Contains(err.Error(), "typeerr.go") {
		t.Errorf("error %q does not name the file with type errors", err)
	}
}

// Diagnostics suppressed by //slltlint:ignore directives must not survive
// Run; unsuppressed ones must.
func TestIgnoreDirectives(t *testing.T) {
	pkgs, err := Load(".", "../geom")
	if err != nil {
		t.Fatal(err)
	}
	az := &Analyzer{
		Name: "filedecl",
		Doc:  "reports every file's package clause (test analyzer)",
		Run: func(p *Pass) error {
			for _, f := range p.Files {
				p.Reportf(f.Package, "package clause")
			}
			return nil
		},
	}
	diags, err := Run(pkgs, []*Analyzer{az})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != len(pkgs[0].Files) {
		t.Fatalf("got %d diagnostics, want one per file (%d)", len(diags), len(pkgs[0].Files))
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1].Position, diags[i].Position
		if b.Filename < a.Filename {
			t.Error("diagnostics not sorted by file")
		}
	}
}
