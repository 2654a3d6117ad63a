// Package maporder flags `range` statements over maps inside the
// algorithm packages. Go randomizes map iteration order, so any map range
// on a tree-construction path is a nondeterminism hazard: two runs with the
// same seed can visit members in different orders and build different
// trees. The compliant idiom is to collect the keys into a slice, sort it,
// and range over the slice; genuinely order-insensitive loops (pure
// commutative reductions) may carry an
// `//slltlint:ignore maporder <reason>` directive instead.
package maporder

import (
	"go/ast"

	"sllt/internal/analysis"
)

// AlgorithmPackages are the package basenames the rule applies to: the
// packages that construct, transform or time clock trees, and every package
// the flow calls into. Their results must be byte-reproducible for a fixed
// seed, since the run cache replays a run by its key.
var AlgorithmPackages = map[string]bool{
	"core":      true,
	"dme":       true,
	"salt":      true,
	"cts":       true,
	"partition": true,
	"buffering": true,
	"rsmt":      true,
	"timing":    true,
	"geom":      true,
	"index":     true,
	"tree":      true,
	"liberty":   true,
	"tech":      true,
}

// Analyzer is the maporder rule.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flags range-over-map in algorithm packages (map iteration order is randomized; iterate a sorted key slice instead)",
	URL:  "DESIGN.md#determinism--invariants",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !AlgorithmPackages[pass.PkgBase()] {
		return nil
	}
	pass.Preorder(func(n ast.Node) {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return
		}
		t := pass.TypeOf(rs.X)
		if t == nil || !analysis.IsMap(t) {
			return
		}
		if orderInsensitive(rs) {
			return
		}
		pass.Reportf(rs.For,
			"range over map %s in algorithm package %q: iteration order is randomized; iterate sorted keys for deterministic trees",
			exprString(rs.X), pass.PkgBase())
	})
	return nil
}

// orderInsensitive recognizes the two range-over-map shapes that cannot
// leak iteration order and are therefore allowed without a directive:
//
//  1. `for range m { ... }` — neither key nor value is bound, so the body
//     cannot observe which element it runs for;
//  2. the key-collection half of the sorted-keys idiom: a body consisting
//     solely of `keys = append(keys, k)`, whose result is order-normalized
//     by the sort that must follow before use.
//
// Anything else (including collection loops that also do other work) is
// flagged and needs either the sorted-keys rewrite or an ignore directive
// with a justification.
func orderInsensitive(rs *ast.RangeStmt) bool {
	if rs.Key == nil && rs.Value == nil {
		return true
	}
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	if rs.Value != nil {
		if v, ok := rs.Value.(*ast.Ident); !ok || v.Name != "_" {
			return false
		}
	}
	if len(rs.Body.List) != 1 {
		return false
	}
	asg, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	dst, ok := asg.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	sliceArg, ok := call.Args[0].(*ast.Ident)
	elemArg, ok2 := call.Args[1].(*ast.Ident)
	return ok && ok2 && sliceArg.Name == dst.Name && elemArg.Name == key.Name
}

// exprString renders simple range operands for the message; complex
// expressions degrade to a placeholder rather than dragging in a printer.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	}
	return "expression"
}
