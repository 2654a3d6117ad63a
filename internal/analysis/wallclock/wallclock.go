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

// Analyzer is the wallclock rule.
var Analyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc:  "forbids time.Now and os.Getenv/LookupEnv/Environ in algorithm packages; construction must be a pure function of inputs and seed",
	Run:  run,
}

// envReads are the os functions that read the process environment.
var envReads = map[string]bool{"Getenv": true, "LookupEnv": true, "Environ": true}

func run(pass *analysis.Pass) error {
	if !AlgorithmPackages[pass.PkgBase()] {
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
