// Package floatcmp flags exact floating-point equality in the geometry and
// timing packages: `==` and `!=` between float expressions, switch
// statements whose tag is a float (every case arm is an implicit ==), and
// map types keyed by floats or float-bearing structs (lookups hash exact
// bits). DME coordinates, Elmore delays and path lengths accumulate
// rounding error, so exact comparison silently turns into branch
// nondeterminism across refactors (and across FMA differences between
// architectures). The compliant idioms are the epsilon helpers in
// internal/geom — geom.AlmostEqual(a, b) for equality, geom.Sign(x) for
// three-way tests against zero — and integer-quantized map keys.
package floatcmp

import (
	"go/ast"
	"go/token"
	"go/types"

	"sllt/internal/analysis"
)

// GeometryPackages are the package basenames the rule applies to: code
// computing with coordinates, wirelengths or delays.
var GeometryPackages = map[string]bool{
	"geom":   true,
	"dme":    true,
	"timing": true,
	"tree":   true,
	"cts":    true,
}

// Analyzer is the floatcmp rule.
var Analyzer = &analysis.Analyzer{
	Name: "floatcmp",
	Doc:  "flags ==/!= on floating-point operands in geometry/timing code; use geom.AlmostEqual or geom.Sign",
	URL:  "DESIGN.md#determinism--invariants",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !GeometryPackages[pass.PkgBase()] {
		return nil
	}
	pass.Preorder(func(n ast.Node) {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			checkBinary(pass, n)
		case *ast.SwitchStmt:
			checkSwitchTag(pass, n)
		case *ast.MapType:
			checkMapKey(pass, n)
		}
	})
	return nil
}

func checkBinary(pass *analysis.Pass, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	xt, yt := pass.TypeOf(be.X), pass.TypeOf(be.Y)
	if xt == nil || yt == nil {
		return
	}
	if !analysis.IsFloat(xt) && !analysis.IsFloat(yt) {
		return
	}
	helper := "geom.AlmostEqual"
	if be.Op == token.NEQ {
		helper = "!geom.AlmostEqual"
	}
	pass.Reportf(be.OpPos,
		"exact float comparison (%s) on inexact quantities; use %s (or geom.Sign for zero tests)",
		be.Op, helper)
}

// checkSwitchTag flags `switch x { case y: }` with a floating-point tag:
// every case arm is an implicit == against the tag, with exactly the
// rounding hazards of a written-out comparison.
func checkSwitchTag(pass *analysis.Pass, s *ast.SwitchStmt) {
	if s.Tag == nil {
		return
	}
	t := pass.TypeOf(s.Tag)
	if t == nil || !analysis.IsFloat(t) {
		return
	}
	pass.Reportf(s.Tag.Pos(),
		"switch on floating-point tag compares exactly per case; rewrite as if/else with geom.AlmostEqual")
}

// checkMapKey flags map types keyed by floats: lookups hash the exact bit
// pattern, so two values a rounding error apart index different entries
// (and NaN keys are unretrievable).
func checkMapKey(pass *analysis.Pass, mt *ast.MapType) {
	t := pass.TypeOf(mt.Key)
	if t == nil || !isFloatKey(t) {
		return
	}
	pass.Reportf(mt.Key.Pos(),
		"map keyed by floating-point type %s: exact-bit lookups on inexact quantities; key by a quantized or integer form", t)
}

// isFloatKey reports whether a map key type hashes floating-point bits:
// floats themselves and structs/arrays with float components (geom.Pt).
func isFloatKey(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&(types.IsFloat|types.IsComplex) != 0
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if isFloatKey(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return isFloatKey(u.Elem())
	}
	return false
}
