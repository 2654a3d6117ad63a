// Package registry is the single source of truth for the analyzer roster.
// Its TestLintClean runs the roster over the module inside `go test ./...`
// and fails on any finding, and its metadata test asserts every entry is
// named and documented.
package registry

import (
	"sllt/internal/analysis"
	"sllt/internal/analysis/ctxguard"
	"sllt/internal/analysis/floatcmp"
	"sllt/internal/analysis/wallclock"
)

// All returns the full analyzer roster in stable (alphabetical) order. The
// returned slice is fresh on every call; callers may filter it.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxguard.Analyzer,
		floatcmp.Analyzer,
		wallclock.Analyzer,
	}
}
