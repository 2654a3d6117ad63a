// Package wallclock forbids time.Now and reads of the process environment
// inside the algorithm packages. Tree construction must be a pure function
// of its inputs and seed; consulting the wall clock mid-algorithm (for
// time-budgeted loops, timestamped tie-breaking, or logging that feeds back
// into decisions) makes results machine- and load-dependent, and an
// environment variable is an input that no run-cache key covers, so a
// replayed run would ignore it. Timing instrumentation and configuration
// belong to the callers (cmd/, internal/bench), which are out of scope.
package wallclock

import (
	"go/ast"

	"sllt/internal/analysis"
	"sllt/internal/analysis/maporder"
)

// Analyzer is the wallclock rule.
var Analyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc:  "forbids time.Now and os.Getenv/LookupEnv/Environ in algorithm packages; construction must be a pure function of inputs and seed",
	URL:  "DESIGN.md#determinism--invariants",
	Run:  run,
}

// envReads are the os functions that read the process environment.
var envReads = map[string]bool{"Getenv": true, "LookupEnv": true, "Environ": true}

func run(pass *analysis.Pass) error {
	// Same scope as maporder: the packages that build trees.
	if !maporder.AlgorithmPackages[pass.PkgBase()] {
		return nil
	}
	pass.Preorder(func(n ast.Node) {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return
		}
		switch pkg := pass.ImportedPkgOf(sel); {
		case pkg == "time" && sel.Sel.Name == "Now":
			pass.Reportf(sel.Pos(),
				"time.Now in algorithm package %q: tree construction must not observe the wall clock; measure time in the caller",
				pass.PkgBase())
		case pkg == "os" && envReads[sel.Sel.Name]:
			pass.Reportf(sel.Pos(),
				"os.%s in algorithm package %q: tree construction must not read the process environment, which no cache key covers; pass the value in through options",
				sel.Sel.Name, pass.PkgBase())
		}
	})
	return nil
}
