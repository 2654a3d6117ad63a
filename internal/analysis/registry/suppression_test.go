package registry

import (
	"path/filepath"
	"sort"
	"testing"

	"sllt/internal/analysis"
)

// TestRosterSuppressionContract loads a fixture package that violates every
// registered analyzer in three parallel files — live.go (bare violations),
// ignored.go (the same violations under justified //slltlint:ignore
// directives), gen.go (the same violations behind a Code generated
// marker) — and asserts the whole roster agrees on the suppression
// contract: every analyzer fires on live.go, and nothing at all survives
// from the other two files.
func TestRosterSuppressionContract(t *testing.T) {
	pkgs, err := analysis.Load(".", "./testdata/src/dme")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	fired := map[string]bool{}
	for _, d := range diags {
		fired[d.Analyzer] = true
		if base := filepath.Base(d.Position.Filename); base != "live.go" {
			t.Errorf("%s finding escaped suppression in %s:%d: %s",
				d.Analyzer, base, d.Position.Line, d.Message)
		}
	}
	var silent []string
	for _, az := range All() {
		if !fired[az.Name] {
			silent = append(silent, az.Name)
		}
	}
	sort.Strings(silent)
	for _, name := range silent {
		t.Errorf("analyzer %s reported nothing on the fixture; its live.go violation no longer trips it", name)
	}
}
