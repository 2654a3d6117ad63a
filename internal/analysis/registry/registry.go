// Package registry is the single source of truth for the slltlint analyzer
// roster. cmd/slltlint drives it, CI runs it, and the framework test
// asserts every entry carries complete rule metadata (name, doc, URL) so
// SARIF uploads never ship anonymous rules.
package registry

import (
	"sllt/internal/analysis"
	"sllt/internal/analysis/ctxguard"
	"sllt/internal/analysis/floatcmp"
	"sllt/internal/analysis/maporder"
	"sllt/internal/analysis/seededrand"
	"sllt/internal/analysis/sharedstate"
	"sllt/internal/analysis/wallclock"
)

// All returns the full analyzer roster in stable (alphabetical) order. The
// returned slice is fresh on every call; callers may filter it.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxguard.Analyzer,
		floatcmp.Analyzer,
		maporder.Analyzer,
		seededrand.Analyzer,
		sharedstate.Analyzer,
		wallclock.Analyzer,
	}
}
