// Package analysis is a self-contained static-analysis framework modeled on
// golang.org/x/tools/go/analysis, built only on the standard library so the
// repository stays dependency-free. It loads packages through the go tool
// (`go list -export`), typechecks them from source against compiler export
// data, and runs Analyzers over the typed syntax trees.
//
// The framework machine-checks the properties no run-to-run comparison can
// see, because their violations behave the same on every run: exact float
// comparison in geometry code, wall-clock and environment reads in the
// algorithm packages, and cancellable server loops. The three rules live
// in the analyzer subpackages (floatcmp, wallclock, ctxguard), registry.All
// lists them, and the registry's TestLintClean runs them over the module
// as part of `go test ./...`. Violations that make a run's output change
// from one run to the next (map iteration order, the global math/rand
// source, racing goroutine writes) are left to the tests that compare runs
// and to the race detector. Three more contracts are runtime tests, not
// lint rules: allocation-free kernels are measured by the AllocsPerRun
// guards in each kernel package's hot_guard_test.go, the purity of the
// cached run by the run cache's replay tests in internal/cts, and the unit
// system (µm, fF, kΩ, ps) by the pinned flow digests and the timing and
// Liberty tests.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static-analysis rule.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	// It must be a valid Go identifier.
	Name string

	// Doc is a one-paragraph description of what the analyzer checks.
	Doc string

	// Run applies the rule to one package, reporting findings through
	// pass.Reportf. A non-nil error aborts the whole lint run (reserved
	// for internal failures, not findings).
	Run func(*Pass) error
}

// A Pass provides one analyzer with one typechecked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is a single finding.
type Diagnostic struct {
	Position token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic in the conventional path:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Position, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Position: p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.TypesInfo.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := p.TypesInfo.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// PkgBase returns the last segment of the package's import path, the name
// analyzers scope their rules by (e.g. "dme", "partition").
func (p *Pass) PkgBase() string {
	path := p.Pkg.Path()
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// ImportedPkgOf resolves a selector expression's qualifier: if sel.X is an
// identifier naming an imported package, the package's import path is
// returned, otherwise "".
func (p *Pass) ImportedPkgOf(sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := p.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// Preorder walks every node of every file in the pass in depth-first order,
// skipping generated files (SkipFile): machine-written code is exempt from
// the style-level rules, and routing the check through here keeps every
// Preorder-based analyzer consistent about it.
func (p *Pass) Preorder(fn func(ast.Node)) {
	for _, f := range p.Files {
		if SkipFile(p.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if n != nil {
				fn(n)
			}
			return true
		})
	}
}

// IsFloat reports whether t's underlying type is a floating-point basic type.
func IsFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
