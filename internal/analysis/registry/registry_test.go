package registry_test

import (
	"regexp"
	"slices"
	"testing"

	"sllt/internal/analysis/registry"
)

var identRe = regexp.MustCompile(`^[a-z][a-z0-9]*$`)

// roster is the exact analyzer list in registry.All's alphabetical order:
// adding or removing an analyzer is a deliberate edit here, never a side
// effect.
var roster = []string{"ctxguard", "floatcmp", "wallclock"}

// TestRosterMetadata asserts the roster is exactly the expected analyzers
// and every one is fully described: a valid identifier name (the one
// ignore directives cite), a one-paragraph doc and a Run function.
func TestRosterMetadata(t *testing.T) {
	all := registry.All()
	names := make([]string, 0, len(all))
	for _, az := range all {
		if az == nil {
			t.Fatal("nil analyzer in roster")
		}
		if !identRe.MatchString(az.Name) {
			t.Errorf("analyzer name %q is not a lowercase identifier", az.Name)
		}
		if az.Doc == "" {
			t.Errorf("analyzer %s has no Doc", az.Name)
		}
		if az.Run == nil {
			t.Errorf("analyzer %s has no Run", az.Name)
		}
		names = append(names, az.Name)
	}
	if !slices.Equal(names, roster) {
		t.Errorf("roster is %v, want %v", names, roster)
	}
}
