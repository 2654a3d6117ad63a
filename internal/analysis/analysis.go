// Package analysis is a self-contained static-analysis framework modeled on
// golang.org/x/tools/go/analysis, built only on the standard library so the
// repository stays dependency-free. It loads packages through the go tool
// (`go list -export`), typechecks them from source against compiler export
// data, and runs Analyzers over the typed syntax trees.
//
// The framework exists to machine-check the properties every result in this
// repository depends on: determinism (bit-identical trees for a given seed)
// and cancellable server loops. The six rules live in the analyzer
// subpackages (maporder, floatcmp, seededrand, wallclock, sharedstate,
// ctxguard), registry.All lists them, and cmd/slltlint drives them. Three
// contracts are not lint rules but runtime tests: allocation-free kernels
// are measured by the AllocsPerRun guards in each kernel package's
// hot_guard_test.go, the purity of the cached run by the run cache's
// replay tests in internal/cts, and the unit system (µm, fF, kΩ, ps) by
// the pinned flow digests and the timing and Liberty tests.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// An Analyzer describes one static-analysis rule.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	// It must be a valid Go identifier.
	Name string

	// Doc is a one-paragraph description of what the analyzer checks.
	Doc string

	// URL points at the analyzer's long-form documentation (conventionally
	// a DESIGN.md anchor). SARIF output emits it as the rule's helpUri so
	// code-scanning UIs can link each finding to its contract.
	URL string

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

	// GoVersion is the module language version ("go1.22"), empty when the
	// go tool did not report one.
	GoVersion string

	diags *[]Diagnostic
}

// A Diagnostic is a single finding.
type Diagnostic struct {
	Pos      token.Pos
	Position token.Position // resolved from Pos at report time
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
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// FileVersion returns the effective language version of the file containing
// pos: the module version from go.mod, possibly lowered by the file's
// //go:build goN.M constraint (the typechecker records the per-file result
// in TypesInfo.FileVersions). Empty when unknown.
func (p *Pass) FileVersion(pos token.Pos) string {
	tf := p.Fset.File(pos)
	if tf == nil {
		return p.GoVersion
	}
	for _, f := range p.Files {
		if p.Fset.File(f.Pos()) == tf {
			if v, ok := p.TypesInfo.FileVersions[f]; ok && v != "" {
				return v
			}
			return p.GoVersion
		}
	}
	return p.GoVersion
}

// VersionAtLeast reports whether language version v ("go1.22") is at least
// go<major>.<minor>. Unknown or malformed versions report false, so callers
// default to the conservative pre-1.22 semantics.
func VersionAtLeast(v string, major, minor int) bool {
	v = strings.TrimPrefix(v, "go")
	parts := strings.SplitN(v, ".", 3)
	if len(parts) < 2 {
		return false
	}
	maj, err1 := strconv.Atoi(parts[0])
	min, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil {
		return false
	}
	return maj > major || (maj == major && min >= minor)
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

// IsMap reports whether t's underlying type is a map.
func IsMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}
